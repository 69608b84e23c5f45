package experiments

import (
	"io"
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
// and carrying its blob refs.
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
		refs := p.Blobs()
		wantRefs := 2
		if !p.IsCapture {
			wantRefs = 3
		}
		if len(refs) != wantRefs {
			t.Fatalf("plan %d: %d blob refs, want %d", i, len(refs), wantRefs)
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
// cacheable keys the pool settles while RenderScenario runs the spec.
func TestProgressKeysMatchRender(t *testing.T) {
	if testing.Short() {
		t.Skip("renders real specs")
	}
	warm := sweepSpec()
	warm.Sweep = scenario.Sweep{}
	warm.Workload.Warm = "Q12"
	phases := streamSpec()
	phases.Workload.Scale = 0.001
	for _, tc := range []struct {
		name string
		sc   scenario.Scenario
		want int
	}{
		{"sweep", sweepSpec(), 3}, // one capture, replays at 2 and 4
		{"warm", warm, 2},         // Q6 cold, Q6 after Q12
		{"phases", phases, 1},     // the whole stream is one job
	} {
		want := ProgressKeys(tc.sc)
		if len(want) != tc.want {
			t.Fatalf("%s: progress keys = %d, want %d", tc.name, len(want), tc.want)
		}

		e := NewExec(2)
		ch, cancel := e.Pool().Subscribe(256)
		err := e.RenderScenario(io.Discard, tc.sc)
		cancel()
		e.Close()
		if err != nil {
			t.Fatal(err)
		}

		settled := make(map[string]bool)
		for ev := range ch {
			if ev.Kind == runner.JobFinished && ev.Key != "" {
				settled[ev.Key] = true
			}
		}
		for _, k := range want {
			if !settled[k] {
				t.Errorf("%s: planned key %s never settled", tc.name, k)
			}
		}
		if len(settled) != len(want) {
			t.Errorf("%s: settled %d distinct keys, planned %d", tc.name, len(settled), len(want))
		}
	}
}

// TestComputePointPopulatesPlannedKeys: a replay plan computed on one
// Exec leaves its ResultKey resolvable — the worker-side half of the
// coordinator contract.
func TestComputePointPopulatesPlannedKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	sc := sweepSpec()
	plans, _ := PlanScenario(sc)
	replay := plans[1]

	e := NewExec(2)
	defer e.Close()
	if err := e.ComputePoint(replay); err != nil {
		t.Fatal(err)
	}
	// Re-running the plan must be answered from the cache: the second
	// RunAll resolves both jobs without executing.
	before := e.Pool().Stats()
	if err := e.ComputePoint(replay); err != nil {
		t.Fatal(err)
	}
	after := e.Pool().Stats()
	if after.CacheHits <= before.CacheHits {
		t.Fatalf("recompute was not cache-resolved: hits %d -> %d", before.CacheHits, after.CacheHits)
	}
	if after.Completed != before.Completed {
		t.Fatalf("recompute executed %d jobs", after.Completed-before.Completed)
	}
}
