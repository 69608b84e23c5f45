// Command bench is the repository's one benchmark: four workloads
// driven through the built dssmem and dssmemd binaries with default
// flags, five end-to-end metrics with regression bounds, and a traced
// run that measures every layer from outside the program. See
// README.md in this directory and BENCHMARK.json at the repository
// root.
//
//	go run ./bench                           every workload, untraced then traced
//	go run ./bench -workload W -trace 0|1    one workload, one run; last stdout line is JSON
//	go run ./bench -compare A.json B.json    judge B against A with the bounds
//	go run ./bench -selfcheck                two full runs of this build must agree
//	go run ./bench -pin                      rewrite bench/expected.json (after a model change)
//
// Run it from the repository root. Everything it writes goes under
// .bench_build/ there.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"text/tabwriter"
)

const buildDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (default: all four, untraced then traced)")
	seed := fs.Uint64("seed", defaultSeed, "workload seed: database generation and query variants")
	seconds := fs.Float64("seconds", 16, "how long one run times passes")
	traced := fs.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = traced run, per-layer metrics")
	out := fs.String("out", filepath.Join(buildDir, "out"), "directory for results.json and spans-<workload>.json")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	selfcheck := fs.Bool("selfcheck", false, "run the whole benchmark twice and require the runs to agree")
	pin := fs.Bool("pin", false, "run every workload at the default seed and rewrite bench/expected.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare wants two result files"))
		}
		a, err := readResultFile(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := readResultFile(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed, changed := compareFiles(stdout, a, b); regressed+changed > 0 {
			fmt.Fprintf(stderr, "bench: %d metrics regressed, %d exact counts changed\n", regressed, changed)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %v", fs.Args()))
	}
	if *traced != 0 && *traced != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	if *seconds <= 0 {
		return fail(fmt.Errorf("-seconds must be positive"))
	}

	if err := findRoot("."); err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return fail(err)
	}
	work, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(work)
	if work, err = filepath.Abs(work); err != nil {
		return fail(err)
	}
	h := &harness{root: ".", work: work, sz: defaultSizing, procs: childProcs(), log: stderr,
		rounds: setupRounds, passes: minPasses}
	// The in-process probes run under the same processor count as the
	// children.
	runtime.GOMAXPROCS(h.procs)

	switch {
	case *pin:
		return h.pinMode(stdout, stderr, *seconds)
	case *selfcheck:
		a, okA := h.fullRun(io.Discard, *seed, *seconds, filepath.Join(*out, "selfcheck-1"))
		b, okB := h.fullRun(io.Discard, *seed, *seconds, filepath.Join(*out, "selfcheck-2"))
		compareFiles(stdout, a, b)
		if !okA || !okB || !selfcheckFiles(stderr, a, b) {
			return 1
		}
		fmt.Fprintln(stdout, "selfcheck: two runs of this build agree within every bound; exact counts identical")
		return 0
	case *name == "":
		if _, ok := h.fullRun(stdout, *seed, *seconds, *out); !ok {
			return 1
		}
		return 0
	}

	w, ok := workloadByName(*name)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	res, err := h.runWorkload(w, *seed, *seconds, *traced == 1)
	if err != nil {
		return fail(err)
	}
	file := newResultFile(h, *seed, *seconds)
	file.add(res)
	if err := h.writeOutputs(file, res, *out); err != nil {
		return fail(err)
	}
	printRun(stdout, res)
	// The contract line: the last line of standard output.
	line := struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]reported `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]reported{}}
	for n, m := range res.Metrics {
		line.Metrics[n] = reported{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		for _, p := range res.Problems {
			fmt.Fprintln(stderr, "bench:", p)
		}
		return 1
	}
	return 0
}

type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResultFile(h *harness, seed uint64, seconds float64) *resultFile {
	return &resultFile{Provenance: gatherProvenance(h, seed, seconds),
		EndToEnd: map[string]*runResult{}, PerLayer: map[string]*runResult{}}
}

// writeOutputs writes results.json, and after a traced run the spans.
func (h *harness) writeOutputs(file *resultFile, last *runResult, out string) error {
	if err := file.write(filepath.Join(out, "results.json")); err != nil {
		return err
	}
	if last.Traced {
		return h.spans.write(filepath.Join(out, "spans-"+last.Workload+".json"))
	}
	return nil
}

// fullRun measures every workload untraced and then traced, prints
// each, and writes the result file. ok is false when any report failed
// its check.
func (h *harness) fullRun(stdout io.Writer, seed uint64, seconds float64, out string) (*resultFile, bool) {
	file := newResultFile(h, seed, seconds)
	ok := true
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := h.runIsolated(w, seed, seconds, traced, out)
			if err != nil {
				h.logf("%s: %v", w.Name, err)
				ok = false
				continue
			}
			file.add(res)
			if err := file.write(filepath.Join(out, "results.json")); err != nil {
				h.logf("%v", err)
				ok = false
			}
			printRun(stdout, res)
			for _, p := range res.Problems {
				h.logf("%s: %s", w.Name, p)
			}
			ok = ok && res.Correct
		}
	}
	h.logf("results in %s", filepath.Join(out, "results.json"))
	return file, ok
}

// runIsolated measures one workload in a fresh process of this
// program, as the builder's driver does, and reads its result back. A
// child's ru_maxrss starts at the peak RSS of the process that forked
// it, so a harness whose heap an earlier traced run's probes have
// grown would report that heap as every later child's peak.
func (h *harness) runIsolated(w workload, seed uint64, seconds float64, traced bool, out string) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	// The child's own result file and spans stay beside the merged file.
	dir := filepath.Join(out, "runs", w.Name+"-trace"+trace)
	cmd := exec.Command(exe, "-workload", w.Name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", trace, "-out", dir)
	cmd.Stderr = h.log
	runErr := cmd.Run() // non-zero when a report failed its check; the result file says which
	f, err := readResultFile(filepath.Join(dir, "results.json"))
	if err != nil {
		if runErr != nil {
			err = runErr
		}
		return nil, err
	}
	res := f.EndToEnd[w.Name]
	if traced {
		res = f.PerLayer[w.Name]
	}
	if res == nil {
		return nil, fmt.Errorf("%s: no result in the child's file", w.Name)
	}
	return res, nil
}

// printRun prints one run's metrics by name with unit, median,
// quartiles and sample count (end to end) or value (per layer).
func printRun(out io.Writer, r *runResult) {
	kind, defs := "end-to-end", endToEnd
	if r.Traced {
		kind, defs = "per-layer (traced)", perLayer
	}
	fmt.Fprintf(out, "== %s  seed %d  %s  passes %d  reports %d failed %d\n",
		r.Workload, r.Seed, kind, r.Passes, r.Attempted, r.Failed)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	for _, d := range defs {
		m := r.Metrics[d.Name]
		if m.Spread != nil {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\tq1 %.6g\tq3 %.6g\tn %d\n", d.Name, m.Value, d.Unit, m.Spread.Q1, m.Spread.Q3, m.Spread.N)
		} else {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", d.Name, m.Value, d.Unit)
		}
	}
	tw.Flush()
}

// pinMode measures every workload at the default seed without pins and
// writes what it saw as the new bench/expected.json. Use it after a
// change that alters the model on purpose.
func (h *harness) pinMode(stdout, stderr io.Writer, seconds float64) int {
	h.unpinned = true
	p := pins{Seed: defaultSeed, Sizing: h.sz, Workloads: map[string]workloadPins{}}
	for _, w := range workloads {
		wp := workloadPins{Reports: map[string]string{}, Exact: map[string]float64{}}
		for _, traced := range []bool{false, true} {
			res, err := h.runWorkload(w, defaultSeed, seconds, traced)
			if err != nil || !res.Correct {
				fmt.Fprintf(stderr, "bench: %s: not pinning a failing run: %v %v\n", w.Name, err, res)
				return 1
			}
			for i, s := range w.Specs(h.sz, defaultSeed) {
				wp.Reports[s.Name] = res.Digests[i]
			}
			wp.PassSimCycles = res.PassSimCycles
			for _, d := range perLayer {
				if d.Exact && traced {
					wp.Exact[d.Name] = res.Metrics[d.Name].Value
				}
			}
		}
		p.Workloads[w.Name] = wp
	}
	b, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	path := filepath.Join(h.root, "bench", "expected.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var names []string
	for n := range p.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "pinned %v for seed %d in %s\n", names, defaultSeed, path)
	return 0
}
