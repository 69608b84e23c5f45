package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/scenario"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The quartile rule must be Python's statistics.quantiles(v, n=4): the
// builder's contract computes spreads with it.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{2.2, 2.1, 2.4, 2.0, 2.3, 9.0}, 2.075, 2.25, 4.05},
	}
	for _, c := range cases {
		s := summarize(c.in)
		if !near(s.Q1, c.q1) || !near(s.Median, c.q2) || !near(s.Q3, c.q3) || s.N != len(c.in) {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", c.in, s, c.q1, c.q2, c.q3)
		}
	}
	if s := summarize([]float64{4}); s.Median != 4 || s.Q1 != 4 || s.Q3 != 4 || s.N != 1 {
		t.Errorf("one sample: %+v", s)
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("no samples: %+v", s)
	}
	if got := (summary{Median: 2, Q1: 1.9, Q3: 2.1}).spread(); !near(got, 0.1) {
		t.Errorf("spread = %v, want 0.1", got)
	}
}

// The reported tail is the highest percentile with at least ten
// samples beyond it.
func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // unsorted on purpose
	}
	if got := percentile(v, 95); got != 95 {
		t.Errorf("p95 of 1..100 = %v, want 95", got)
	}
	if got := percentile(v, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
}

// Self time is the span minus the part of it its direct children
// cover; overlapping children count once, grandchildren not at all.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps span 2 by 10
		{ID: 4, Parent: 2, Start: 15, End: 20},  // grandchild of span 1
		{ID: 5, Parent: 1, Start: 90, End: 120}, // runs past its parent
	}
	selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 5, 5: 30}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d self = %d, want %d", s.ID, s.Self, want[s.ID])
		}
	}

	var off *spanLog
	if id := off.begin("x", 0); id != 0 || off.end(id) != 0 || off.write("unused") != nil {
		t.Error("a nil span log must record nothing")
	}
	l := newSpanLog()
	root := l.begin("root", 0)
	kid := l.begin("kid", root)
	l.end(kid)
	l.end(root)
	if len(l.spans) != 2 || l.spans[1].Parent != root || l.spans[0].End < l.spans[1].End {
		t.Errorf("span log: %+v", l.spans)
	}
}

func TestParsePprofTags(t *testing.T) {
	out, err := os.ReadFile("testdata/pprof_tags.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := parsePprofTags(out, "stage")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"replay": 1.5, "decode": 0.15, "capture": 0.08}
	if len(got) != len(want) {
		t.Fatalf("stage tags = %v, want %v", got, want)
	}
	for k, v := range want {
		if !near(got[k], v) {
			t.Errorf("stage %s = %v, want %v", k, got[k], v)
		}
	}
	for in, secs := range map[string]float64{"2.1mins": 126, "10.0ms": 0.01, "3us": 3e-6, "1.7s": 1.7} {
		if got, err := parsePprofDuration(in); err != nil || !near(got, secs) {
			t.Errorf("parsePprofDuration(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parsePprofDuration("12 parsecs"); err == nil {
		t.Error("an unknown unit must be an error")
	}
}

func TestParseMetrics(t *testing.T) {
	data, err := os.ReadFile("testdata/metrics_snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	c, err := parseSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"dssmem_cache_hits_total":       7,
		cyclesCounter:                   504051027,
		"dssmem_runner_job_seconds_sum": 5.5,
		"dssmem_runner_workers":         2,
		"dssmem_runner_work":            0, // a prefix of a name is not the name
		"go_goroutines":                 0,
	} {
		if got := c.get(name); got != want {
			t.Errorf("snapshot %s = %v, want %v", name, got, want)
		}
	}
	if got := c[`dssmem_cache_hits_total{tier="disk"}`]; got != 2 {
		t.Errorf("labelled sample = %v, want 2", got)
	}
	if _, err := parseSnapshot([]byte("{")); err == nil {
		t.Error("a truncated snapshot must be an error")
	}

	text, err := os.ReadFile("testdata/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"dssmem_cache_hits_total":            2000,
		"dssmem_wal_appends_total":           3003,
		cyclesCounter:                        1.5e9,
		"dssmem_http_request_seconds_count":  1000,
		"dssmem_http_request_seconds_bucket": 0, // bucket series are skipped
	} {
		if got := p.get(name); got != want {
			t.Errorf("prom %s = %v, want %v", name, got, want)
		}
	}
	sum := counters{}
	sum.add(c)
	sum.add(c)
	if got := sum.get("dssmem_runner_workers"); got != 4 {
		t.Errorf("two children's gauges sum to %v, want 4", got)
	}
}

// The same seed must give the same inputs, another seed other inputs,
// and every generated spec must be one the programs accept.
func TestSpecGeneration(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.Specs(defaultSizing, 7), w.Specs(defaultSizing, 7), w.Specs(defaultSizing, 8)
		if len(a) == 0 || len(a) != len(b) || len(a) != len(c) {
			t.Fatalf("%s: %d/%d/%d specs", w.Name, len(a), len(b), len(c))
		}
		for i := range a {
			if !bytes.Equal(a[i].Body, b[i].Body) {
				t.Errorf("%s/%s: same seed, different spec", w.Name, a[i].Name)
			}
			if bytes.Equal(a[i].Body, c[i].Body) {
				t.Errorf("%s/%s: different seed, same spec", w.Name, a[i].Name)
			}
			sc, err := scenario.Decode(a[i].Body)
			if err == nil {
				err = sc.Validate()
			}
			if err != nil {
				t.Errorf("%s/%s: %v", w.Name, a[i].Name, err)
				continue
			}
			if sc.Workload.Seed != 7 {
				t.Errorf("%s/%s: database seed %d, want 7", w.Name, a[i].Name, sc.Workload.Seed)
			}
		}
	}
	// The stream's variants come from the seed, not from the order of
	// evaluation: six phases, 4+4+4+4+5+4 runs.
	sc, err := scenario.Decode(streamSpec(0.004, defaultSeed))
	if err != nil {
		t.Fatal(err)
	}
	runs := 0
	for _, ph := range sc.Workload.Phases {
		for _, chain := range ph.Runs {
			runs += len(chain)
		}
	}
	if len(sc.Workload.Phases) != 6 || runs != 25 || !sc.Workload.Phases[0].Flush || sc.Workload.Phases[1].Flush {
		t.Errorf("stream: %d phases, %d runs", len(sc.Workload.Phases), runs)
	}
}

// BENCHMARK.json at the repository root and the tables in result.go
// and specs.go say the same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in specs.go", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in specs.go", i, b.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in result.go", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in result.go", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25)) {
				t.Errorf("%s %s: bound in BENCHMARK.json and %v in result.go disagree or are out of range", kind, d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("setup_s must be an end-to-end metric")
	}
}

func TestJudge(t *testing.T) {
	d := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	m := func(med, q1, q3 float64) measured {
		return measured{Value: med, Spread: &summary{Median: med, Q1: q1, Q3: q3, N: 5}}
	}
	for _, c := range []struct {
		name string
		a, b measured
		want string
	}{
		{"same", m(2, 1.95, 2.05), m(2.02, 1.98, 2.06), verdictUnchanged},
		{"slower past the bound", m(2, 1.95, 2.05), m(2.3, 2.25, 2.35), verdictRegressed},
		{"slower within the bound", m(2, 1.95, 2.05), m(2.15, 2.1, 2.2), verdictUnchanged},
		{"faster, clear of the parent's spread", m(2, 1.95, 2.05), m(1.7, 1.65, 1.75), verdictImproved},
		{"faster, but inside the parent's quartiles", m(2, 1.92, 2.08), m(1.95, 1.9, 2.0), verdictUnchanged},
		{"noisy parent, overlapping", m(2, 1.7, 2.3), m(2.25, 2.2, 2.4), verdictUnresolved},
		{"noisy parent, but every quartile worse", m(2, 1.7, 2.3), m(3, 2.9, 3.1), verdictRegressed},
	} {
		if got := judge(d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	up := metricDef{Name: "sim_mcycles_per_s", Better: "higher", Bound: 0.10}
	if got := judge(up, m(100, 99, 101), m(85, 84, 86)); got != verdictRegressed {
		t.Errorf("throughput down 15%%: %s", got)
	}
	if got := judge(up, m(100, 99, 101), m(120, 119, 121)); got != verdictImproved {
		t.Errorf("throughput up 20%%: %s", got)
	}
}
