// Command traceanalyze quantifies the paper's Section 3 memory-access
// analysis: per data structure, the reference count, footprint,
// temporal reuse (distinguishing the read-then-copy immediate re-reads
// the paper discounts from genuine distant reuse), and within-line
// spatial utilization. On Q6 the Data row shows high spatial
// utilization and near-zero distant reuse ("there is no temporal
// locality"); on Q3 the Index row shows heavy distant reuse ("the top
// levels of the index tree are re-read every time a new customer is
// considered").
//
//	traceanalyze [-q Q6] [-scale 0.003] [-record FILE]
//	traceanalyze -replay FILE
//
// The analysis consumes the same recorded reference stream
// (internal/trace) that the simulator's replay engine executes: the
// query is captured once, then the streams are replayed through the
// timing model with the locality analyzer attached. -record saves the
// captured trace; -replay analyzes a saved trace without rebuilding
// the database or re-running the executor.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/simm"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("traceanalyze: ")
	query := flag.String("q", "Q6", "query to trace (Q1..Q17, UF1, UF2)")
	scale := flag.Float64("scale", 0.003, "TPC-D scale factor")
	record := flag.String("record", "", "save the captured trace to this file")
	replay := flag.String("replay", "", "analyze a saved trace file instead of running a query (-q/-scale ignored)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "unexpected arguments:", flag.Args())
		os.Exit(2)
	}

	var src trace.StreamSource
	if *replay != "" {
		// Stream the saved blob: header and CRC verified up front, the
		// chunk bytes read on demand during the replay below.
		f, err := os.Open(*replay)
		if err != nil {
			log.Fatalf("-replay: %v", err)
		}
		defer f.Close()
		fi, err := f.Stat()
		if err != nil {
			log.Fatalf("-replay: %v", err)
		}
		rd, err := trace.OpenBlob(f, fi.Size())
		if err != nil {
			log.Fatalf("-replay %s: %v", *replay, err)
		}
		src = rd
	} else {
		cfg := core.DefaultConfig()
		cfg.DB.ScaleFactor = *scale
		s, err := core.NewSystem(cfg)
		if err != nil {
			log.Fatal(err)
		}
		_, tr := s.RunColdRecorded(*query)
		if *record != "" {
			if err := os.WriteFile(*record, tr.Marshal(), 0o644); err != nil {
				log.Fatalf("-record: %v", err)
			}
		}
		src = tr
	}

	meta := src.Meta()
	mcfg := machine.Baseline()
	mcfg.Nodes = meta.Nodes
	var an *trace.Analyzer
	if _, err := core.ReplayTraceWith(src, mcfg, func(eng *sched.Engine, mem *simm.Memory) {
		an = trace.NewAnalyzer(mem)
		eng.Tracer = an.Hook()
	}); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s: %d traced references\n\n", meta.Query, an.TotalRefs())
	fmt.Print(an.Table())

	data := an.Profile(simm.CatData)
	idx := an.Profile(simm.CatIndex)
	fmt.Println()
	if data.Refs > 0 {
		fmt.Printf("Data:  %.0f%% of each touched line used (spatial locality), "+
			"%.1f%% distant re-references (temporal)\n",
			100*data.LineUtilization(), 100*data.DistantShare())
	}
	if idx.Refs > 0 {
		fmt.Printf("Index: %.1f refs per line, %.1f%% distant re-references "+
			"(the upper B-tree levels are re-read per probe)\n",
			idx.RefsPerLine(), 100*idx.DistantShare())
	}
}
