// Command queryrun executes one TPC-D query on the simulated
// multiprocessor (one instance per processor with different parameters,
// as in the paper) and prints its plan, a result sample, and the full
// memory characterization.
//
// With -stream it executes a multi-phase query stream instead: phases
// separated by ';', per-processor run chains by ',', chained runs by
// '+', an empty chain idling the processor, and a '!' prefix flushing
// the caches at the phase boundary (phase 0 always starts cold):
//
//	queryrun -stream 'Q6,Q6,Q6,Q6;Q3+Q6,Q12,,UF1'
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/pg/executor"
	"repro/internal/simm"
	"repro/internal/stats"
	"repro/internal/tpcd"
)

// parseStream parses the -stream grammar into executor phases on procs
// processors. Variants are 100*phase + 10*processor + run position, so
// no two runs in a stream share predicate parameters.
func parseStream(s string, procs int) ([]core.StreamPhase, error) {
	var phases []core.StreamPhase
	for k, phase := range strings.Split(s, ";") {
		flush := k == 0
		if strings.HasPrefix(phase, "!") {
			flush = true
			phase = phase[1:]
		}
		chains := strings.Split(phase, ",")
		if len(chains) > procs {
			return nil, fmt.Errorf("phase %d names %d processors, machine has %d", k, len(chains), procs)
		}
		runs := make([][]core.QueryRun, len(chains))
		for i, chain := range chains {
			if chain == "" {
				continue // idle processor
			}
			for j, q := range strings.Split(chain, "+") {
				if q == "" {
					return nil, fmt.Errorf("phase %d, processor %d: empty run in chain %q", k, i, chain)
				}
				runs[i] = append(runs[i], core.QueryRun{
					Query:   q,
					Variant: uint64(100*k + 10*i + j),
				})
			}
		}
		phases = append(phases, core.StreamPhase{Flush: flush, Runs: runs})
	}
	return phases, nil
}

// planTree renders a plan tree as indented text, one operator per line.
func planTree(root executor.Node) string {
	var sb strings.Builder
	var walk func(n executor.Node, depth int)
	walk = func(n executor.Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.Kind().String())
		sb.WriteString("\n")
		for _, ch := range n.Children() {
			walk(ch, depth+1)
		}
	}
	walk(root, 0)
	return strings.TrimRight(sb.String(), "\n")
}

// printBreakdown writes one report's time and memory characterization.
func printBreakdown(rep *core.Report) {
	tot := rep.Total()
	fmt.Println("time breakdown:")
	fmt.Printf("  Busy  %s\n  MSync %s\n  Mem   %s\n",
		stats.Pct(tot.Busy, tot.Total()), stats.Pct(tot.MSync, tot.Total()), stats.Pct(tot.MemTotal(), tot.Total()))
	g := tot.MemByGroup()
	fmt.Printf("  Mem by structure: Data %s, Index %s, Metadata %s, Priv %s\n",
		stats.Pct(g[simm.GroupData], tot.MemTotal()), stats.Pct(g[simm.GroupIndex], tot.MemTotal()),
		stats.Pct(g[simm.GroupMetadata], tot.MemTotal()), stats.Pct(g[simm.GroupPriv], tot.MemTotal()))
	st := rep.Machine
	fmt.Printf("  L1 miss rate %.1f%%, L2 global miss rate %.2f%%\n",
		100*st.L1MissRate(), 100*st.L2MissRate())
	fmt.Printf("  reads=%d writes=%d syncs=%d invalidations=%d\n",
		st.Reads, st.Writes, st.Syncs, st.Invalidations)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("queryrun: ")
	query := flag.String("q", "Q6", "query to run (Q1..Q17)")
	stream := flag.String("stream", "", "multi-phase stream, e.g. 'Q6,Q6,Q6,Q6;Q3+Q6,Q12,,UF1' (overrides -q)")
	scale := flag.Float64("scale", 0.01, "TPC-D scale factor")
	procs := flag.Int("procs", 4, "processors running the query (1..4)")
	rows := flag.Int("rows", 10, "result rows to print (processor 0's instance)")
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.DB.ScaleFactor = *scale
	s, err := core.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}

	if *stream != "" {
		phases, err := parseStream(*stream, s.Mem.Nodes())
		if err != nil {
			log.Fatalf("-stream: %v", err)
		}
		t0 := time.Now()
		answers := s.RunStreamAnswers(phases)
		wall := time.Since(t0).Round(time.Millisecond)
		for k, ans := range answers {
			boundary := "warm caches"
			if phases[k].Flush {
				boundary = "cold caches"
			}
			fmt.Printf("phase %d (%s):\n", k, boundary)
			for _, a := range ans {
				fmt.Printf("  proc %d: %s variant %d -> %d rows\n", a.Proc, a.Query, a.Variant, a.Rows)
			}
		}
		fmt.Printf("stream of %d phases simulated in %v wall\n", len(phases), wall)
		return
	}

	plan := tpcd.BuildQuery(s.DB, *query, 0)
	fmt.Printf("%s plan operators: %s\n", *query, plan.OpsString())
	fmt.Println(planTree(plan.Root))

	runs := make([]core.QueryRun, s.Mem.Nodes())
	for i := 0; i < *procs && i < len(runs); i++ {
		runs[i] = core.QueryRun{Query: *query, Variant: uint64(i)}
	}
	s.ColdStart()
	t0 := time.Now()
	rep := s.RunQueries(runs)
	fmt.Printf("simulated %d cycles in %v wall\n\n", rep.MaxClock(), time.Since(t0).Round(time.Millisecond))

	printBreakdown(rep)
	fmt.Println()

	if *rows > 0 {
		resultRows, cols := s.CollectRows(*query, 0)
		fmt.Println("result sample:")
		fmt.Println("  " + strings.Join(cols, " | "))
		for i, r := range resultRows {
			if i >= *rows {
				break
			}
			cells := make([]string, len(r))
			for j, d := range r {
				if d.IsStr {
					cells[j] = d.Str
				} else {
					cells[j] = fmt.Sprint(d.Int)
				}
			}
			fmt.Println("  " + strings.Join(cells, " | "))
		}
		fmt.Printf("  (%d rows total)\n", len(resultRows))
	}
}
