package experiments

import (
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/scenario"
)

func sweepSpec() scenario.Scenario {
	sc := scenario.Default()
	sc.Machine.Processors = 2
	sc.Workload.Queries = []string{"Q6"}
	sc.Workload.Scale = 0.001
	sc.Sweep = scenario.Sweep{Axis: scenario.AxisPrefetch, Points: []int{0, 2, 2, 4}}
	return sc
}

// TestPlanScenario pins the decomposition: one capture per query plus
// one replay per distinct non-baseline sweep point, each plan keyed
// and naming the capture it replays.
func TestPlanScenario(t *testing.T) {
	sc := sweepSpec()
	plans, ok := PlanScenario(sc)
	if !ok {
		t.Fatal("sweep spec not distributable")
	}
	// Points 0,2,2,4 on the prefetch axis with a non-prefetching
	// baseline: point 0 is the baseline (capture), 2 repeats — so one
	// capture plus replays for 2 and 4.
	if len(plans) != 3 {
		t.Fatalf("got %d plans, want 3: %+v", len(plans), plans)
	}
	if !plans[0].IsCapture || plans[1].IsCapture || plans[2].IsCapture {
		t.Fatalf("capture flags wrong: %+v", plans)
	}
	for i, p := range plans {
		if p.ResultKey() == "" {
			t.Fatalf("plan %d has no result key", i)
		}
		if p.CaptureKey() != plans[0].ResultKey() {
			t.Fatalf("plan %d: capture key %s, want the capture plan's %s", i, p.CaptureKey(), plans[0].ResultKey())
		}
	}
	if plans[1].ResultKey() == plans[2].ResultKey() {
		t.Fatal("distinct replay points share a key")
	}

	warm := scenario.Default()
	warm.Workload.Queries = []string{"Q3"}
	warm.Workload.Warm = "Q12"
	if _, ok := PlanScenario(warm); ok {
		t.Fatal("warm spec claimed to be distributable")
	}
	if keys := ProgressKeys(warm); len(keys) != 2 {
		t.Fatalf("warm progress keys = %d, want 2 (cold + warmed)", len(keys))
	}
	if _, ok := PlanScenario(streamSpec()); ok {
		t.Fatal("phase spec claimed to be distributable")
	}
}

// TestProgressKeysMatchRender is the progress-attribution contract:
// for every spec shape, the keys ProgressKeys predicts are exactly the
// cacheable keys the pool settles while RenderScenario runs the spec,
// and the render submits and executes exactly one job per key — a
// repeated sweep point or query is not simulated twice.
func TestProgressKeysMatchRender(t *testing.T) {
	if testing.Short() {
		t.Skip("renders real specs")
	}
	warm := sweepSpec()
	warm.Sweep = scenario.Sweep{}
	warm.Workload.Warm = "Q12"
	phases := streamSpec()
	phases.Workload.Scale = 0.001
	repeatedBase := sweepSpec()
	repeatedBase.Sweep.Points = []int{0, 0, 4}
	once := sweepSpec()
	once.Sweep = scenario.Sweep{}
	twice := once
	twice.Workload.Queries = []string{"Q6", "Q6"}
	for _, tc := range []struct {
		name string
		sc   scenario.Scenario
		want int
	}{
		{"sweep", sweepSpec(), 3},          // one capture, replays at 2 and 4
		{"repeated-base", repeatedBase, 2}, // both 0s are the capture, a replay at 4
		{"query-twice", twice, 1},          // Q6 listed twice is one capture
		{"warm", warm, 2},                  // Q6 cold, Q6 after Q12
		{"phases", phases, 1},              // the whole stream is one job
	} {
		want := ProgressKeys(tc.sc)
		if len(want) != tc.want {
			t.Fatalf("%s: progress keys = %d, want %d", tc.name, len(want), tc.want)
		}

		e := NewExec(2)
		settled := make(map[string]bool)
		cancel := e.Pool().Subscribe(func(ev runner.Event) {
			if ev.Kind == runner.JobFinished && ev.Key != "" {
				settled[ev.Key] = true
			}
		})
		before := e.Pool().Stats()
		err := e.RenderScenario(io.Discard, tc.sc)
		after := e.Pool().Stats()
		cancel()
		e.Close()
		if err != nil {
			t.Fatal(err)
		}

		for _, k := range want {
			if !settled[k] {
				t.Errorf("%s: planned key %s never settled", tc.name, k)
			}
		}
		if len(settled) != len(want) {
			t.Errorf("%s: settled %d distinct keys, planned %d", tc.name, len(settled), len(want))
		}
		if sub, done := after.Submitted-before.Submitted, after.Completed-before.Completed; sub != int64(len(want)) || done != int64(len(want)) {
			t.Errorf("%s: render submitted %d and executed %d jobs for %d keys", tc.name, sub, done, len(want))
		}
	}

	// A query listed twice still renders a row for each listing: the
	// single-listing report with every Q6 row doubled.
	e := NewExec(2)
	defer e.Close()
	render := func(sc scenario.Scenario) []string {
		var b strings.Builder
		if err := e.RenderScenario(&b, sc); err != nil {
			t.Fatal(err)
		}
		out := b.String()
		return strings.Split(out[strings.Index(out, "\n\n"):], "\n")
	}
	var want []string
	for _, line := range render(once) {
		want = append(want, line)
		if strings.HasPrefix(line, "Q6") {
			want = append(want, line)
		}
	}
	if got := render(twice); !reflect.DeepEqual(got, want) {
		t.Errorf("Q6 listed twice renders\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
