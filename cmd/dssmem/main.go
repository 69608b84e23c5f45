// Command dssmem reproduces the paper's tables and figures.
//
//	dssmem -exp table1|fig6|fig7|fig8|fig9|fig10|fig11|fig12|fig13|all [-scale 0.01] [-seed N] [-jobs N]
//	dssmem -scenario FILE    run one declarative scenario spec (JSON)
//	dssmem -list             list the preset scenarios behind -exp
//
// Each experiment prints the same rows/series the paper reports, as
// aligned text tables. Measurements run as jobs on a worker pool
// (internal/runner): -jobs picks the worker count, and a
// content-addressed result cache deduplicates repeated configurations,
// so the output is byte-identical for any worker count.
//
// Every named experiment is a preset scenario (internal/scenario); a
// -scenario file describes a custom machine + workload + sweep in the
// same spec language and runs through the identical capture/replay
// machinery, sharing cache entries with any preset that visits the
// same configuration.
//
// With -metrics FILE the run is instrumented (internal/metrics) and a
// JSON snapshot of every counter, gauge, and histogram is written after
// the last experiment; "-" writes it to stderr. Without the flag no
// registry exists and the instrumentation costs nothing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// presetWorkload summarizes a preset's workload shape for -list: the
// phase count for stream presets, the query list otherwise, marking
// presets whose queries are fixed (they ignore -queries).
func presetWorkload(p scenario.Preset) string {
	sc := p.Scenarios[0]
	var wl string
	if n := len(sc.Workload.Phases); n > 0 {
		wl = fmt.Sprintf("%d-phase stream", n)
	} else {
		wl = strings.Join(sc.Workload.Queries, ",")
	}
	if p.QueriesFixed {
		wl += " (fixed)"
	}
	return wl
}

// listPresets writes every preset scenario's name, workload shape, and
// one-line description, one per row, in the order -exp all runs them.
func listPresets(w io.Writer) {
	for _, p := range scenario.Presets() {
		fmt.Fprintf(w, "%-12s %-22s %s\n", p.Name, presetWorkload(p), p.Description)
	}
}

// loadScenario reads, decodes, and validates one spec file.
func loadScenario(path string) (*scenario.Scenario, error) {
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
	return sc, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dssmem: ")
	exp := flag.String("exp", "all", "experiment: "+strings.Join(experiments.KnownExperiments, ", ")+", all")
	scenarioFile := flag.String("scenario", "", "run one scenario spec file (JSON) instead of a named experiment")
	list := flag.Bool("list", false, "list the preset scenarios and exit")
	scale := flag.Float64("scale", 0.01, "TPC-D scale factor (paper: 0.01, i.e. the standard set scaled down 100x)")
	seed := flag.Uint64("seed", 12345, "database generation seed")
	queries := flag.String("queries", "Q3,Q6,Q12", "comma-separated traced queries")
	jobs := flag.Int("jobs", 0, "concurrent experiment workers (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache-dir", "", "directory for the persistent result cache (empty = in-memory only)")
	traceDir := flag.String("trace-dir", "", "directory for captured reference-trace blobs (empty = traces stay in the result cache)")
	metricsOut := flag.String("metrics", "", "write a JSON metrics snapshot to this file after the run (\"-\" = stderr)")
	verbose := flag.Bool("v", false, "log per-job progress to stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "unexpected arguments:", flag.Args())
		os.Exit(2)
	}
	// Negative worker counts used to fall into the "<= 0 means default"
	// buckets silently; a typo like `-jobs -4` deserves a loud usage
	// error, not a full-width run.
	if *jobs < 0 {
		fmt.Fprintf(os.Stderr, "dssmem: -jobs must be >= 0 (got %d)\n", *jobs)
		os.Exit(2)
	}

	if *list {
		listPresets(os.Stdout)
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("-cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("-cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatalf("-memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile reflects live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatalf("-memprofile: %v", err)
			}
		}()
	}

	var spec *scenario.Scenario
	if *scenarioFile != "" {
		var err error
		if spec, err = loadScenario(*scenarioFile); err != nil {
			log.Fatalf("-scenario: %v", err)
		}
	}

	names := experiments.KnownExperiments
	if *exp != "all" {
		if !experiments.IsKnown(*exp) {
			fmt.Fprintf(os.Stderr, "dssmem: unknown experiment %q\nvalid experiments: %s, all\n",
				*exp, strings.Join(experiments.KnownExperiments, ", "))
			os.Exit(2)
		}
		names = []string{*exp}
	}

	o := experiments.Defaults()
	o.Scale = *scale
	o.Seed = *seed
	o.Queries = strings.Split(*queries, ",")

	// A CLI run with an unusable cache directory must fail loudly: the
	// user asked for persistence, and silently re-simulating whole
	// sweeps is far more expensive than restating the flag.
	if *cacheDir != "" {
		if err := runner.ValidateCacheDir(*cacheDir); err != nil {
			log.Fatalf("-cache-dir: %v", err)
		}
	}
	if *traceDir != "" {
		if err := runner.ValidateCacheDir(*traceDir); err != nil {
			log.Fatalf("-trace-dir: %v", err)
		}
	}

	// The registry exists only when asked for; a nil registry makes all
	// instrumentation no-ops, so the default path measures nothing.
	var reg *metrics.Registry
	if *metricsOut != "" {
		reg = metrics.New()
		reg.CollectGoRuntime()
	}

	e := experiments.NewExecConfig(runner.Config{Workers: *jobs,
		CacheDir: *cacheDir, TraceDir: *traceDir, Metrics: reg})
	defer e.Close()

	if *verbose {
		cancel := e.Pool().Subscribe(func(ev runner.Event) {
			switch ev.Kind {
			case runner.JobStarted:
				log.Printf("job %d %s: started", ev.Job, ev.Name)
			case runner.JobFinished:
				detail := ""
				if ev.CacheHit {
					detail = ", cache hit"
				}
				if ev.Err != "" {
					detail += ", error: " + ev.Err
				}
				log.Printf("job %d %s: %s in %v%s", ev.Job, ev.Name, ev.State, ev.Elapsed.Round(time.Millisecond), detail)
			}
		})
		defer cancel()
	}

	if spec != nil {
		t0 := time.Now()
		if err := e.RenderScenario(os.Stdout, *spec); err != nil {
			log.Fatalf("-scenario: %v", err)
		}
		fmt.Fprintf(os.Stderr, "[scenario done in %v]\n", time.Since(t0).Round(time.Millisecond))
	} else {
		for _, name := range names {
			t0 := time.Now()
			fmt.Printf("==== %s ====\n", name)
			if err := e.Render(os.Stdout, name, o); err != nil {
				log.Fatalf("%s: %v", name, err)
			}
			fmt.Fprintf(os.Stderr, "[%s done in %v]\n", name, time.Since(t0).Round(time.Millisecond))
			fmt.Println()
		}
	}

	if reg != nil {
		out := os.Stderr
		if *metricsOut != "-" {
			f, err := os.Create(*metricsOut)
			if err != nil {
				log.Fatalf("-metrics: %v", err)
			}
			defer f.Close()
			out = f
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reg.Snapshot()); err != nil {
			log.Fatalf("-metrics: %v", err)
		}
	}
}
