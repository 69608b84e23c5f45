// Warmcache: the paper's inter-query temporal locality experiment
// (Figure 12). With very large caches (1-MB L1, 32-MB L2) bounding the
// achievable reuse, it measures Q3 and Q12 cold, after another instance
// of themselves, and after each other. Sequential queries re-reading a
// scanned table find nearly all of it in the cache; Index queries reuse
// their indices but little data.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	scale := flag.Float64("scale", 0.002, "TPC-D scale factor")
	flag.Parse()

	o := experiments.Defaults()
	o.Scale = *scale

	e := experiments.NewExec(0)
	defer e.Close()
	results, err := e.RunWarmCache(o)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("secondary-cache misses of the measured query, cold start = 100")
	fmt.Println()
	for _, target := range []string{"Q3", "Q12"} {
		kind := "Index"
		if target == "Q12" {
			kind = "Sequential"
		}
		fmt.Printf("--- %s (%s query) ---\n", target, kind)
		fmt.Print(experiments.Fig12(results, target))
		fmt.Println()
	}
	fmt.Println("Reading the tables: Q12 after Q12 loses almost all of its Data")
	fmt.Println("misses (the whole lineitem table is reused); Q12 after Q3 keeps")
	fmt.Println("most of them (an Index query touched only a few tuples); Q3 after")
	fmt.Println("Q3 reuses indices; Q3 after Q12 reuses some of the scanned data.")
}
