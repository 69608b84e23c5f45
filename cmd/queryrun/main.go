// Command queryrun executes one TPC-D query on the simulated
// multiprocessor (one instance per processor with different parameters,
// as in the paper) and prints its plan, a result sample, and the full
// memory characterization.
//
// With -stream it executes a multi-phase query stream instead and
// prints every run's result-row count. The stream is a scenario spec
// file whose workload carries phases — the JSON language `dssmem
// -scenario` and dssmemd accept — so the spec's machine and database
// replace -scale and -procs:
//
//	queryrun -stream examples/scenario-stream.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/pg/executor"
	"repro/internal/scenario"
	"repro/internal/simm"
	"repro/internal/stats"
	"repro/internal/tpcd"
)

// loadStream reads, decodes, and validates a stream spec file: a
// scenario whose workload is a phase sequence.
func loadStream(path string) (*scenario.Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc, err := scenario.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(sc.Workload.Phases) == 0 {
		return nil, fmt.Errorf("%s: workload has no phases", path)
	}
	return sc, nil
}

// runStream executes the spec's phases and prints each run's answer.
func runStream(sc *scenario.Scenario) error {
	s, err := core.NewScenarioSystem(*sc)
	if err != nil {
		return err
	}
	phases := core.StreamPhasesFromSpec(sc.Workload.Phases)
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
	return nil
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
	stream := flag.String("stream", "", "run the phases of this scenario spec file (JSON with workload.phases) instead of -q; the spec sets machine and scale")
	scale := flag.Float64("scale", 0.01, "TPC-D scale factor")
	procs := flag.Int("procs", 4, "processors running the query (1..4)")
	rows := flag.Int("rows", 10, "result rows to print (processor 0's instance)")
	flag.Parse()

	if *stream != "" {
		sc, err := loadStream(*stream)
		if err == nil {
			err = runStream(sc)
		}
		if err != nil {
			log.Fatalf("-stream: %v", err)
		}
		return
	}

	cfg := core.DefaultConfig()
	cfg.DB.ScaleFactor = *scale
	s, err := core.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
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
