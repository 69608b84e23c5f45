// Locality: the paper's Section 5.2 in miniature. Sweeps the cache line
// size (spatial locality, Figures 8-9) and the cache sizes (temporal
// locality, Figures 10-11) for one query and prints how misses and
// execution time respond, demonstrating the Index/Sequential contrast:
// shared data rewards long lines, private data punishes them, and
// database data shows no intra-query temporal locality at all.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	query := flag.String("q", "Q6", "query to study (Q3 = Index, Q6/Q12 = Sequential)")
	scale := flag.Float64("scale", 0.002, "TPC-D scale factor")
	flag.Parse()

	o := experiments.Defaults()
	o.Scale = *scale
	o.Queries = []string{*query}

	e := experiments.NewExec(0)
	defer e.Close()

	fmt.Printf("=== spatial locality: %s misses and time vs cache line size ===\n\n", *query)
	line, err := e.RunLineSweep(o)
	if err != nil {
		log.Fatal(err)
	}
	l1, l2 := experiments.Fig8(line, *query)
	fmt.Println("secondary-cache misses by structure (baseline 64B = 100):")
	fmt.Print(l2)
	fmt.Println("\nprimary-cache misses (watch Priv rise as lines lengthen):")
	fmt.Print(l1)
	fmt.Println("\nexecution time (PMem grows, SMem shrinks):")
	fmt.Print(experiments.Fig9(line, *query))

	fmt.Printf("\n=== temporal locality: %s misses and time vs cache size ===\n\n", *query)
	cache, err := e.RunCacheSweep(o)
	if err != nil {
		log.Fatal(err)
	}
	_, l2c := experiments.Fig10(cache, *query)
	fmt.Println("secondary-cache misses (the flat Data column is the paper's")
	fmt.Println("'database data has no temporal locality within a query'):")
	fmt.Print(l2c)
	fmt.Println("\nexecution time (speedups come mostly from private data):")
	fmt.Print(experiments.Fig11(cache, *query))
}
