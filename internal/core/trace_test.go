package core

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/machine"
	"repro/internal/trace"
)

func traceTestConfigs(base machine.Config) []struct {
	name string
	cfg  machine.Config
} {
	pf := base
	pf.PrefetchData = true
	pf.PrefetchDegree = 4
	wb := base
	wb.WriteBufEntries = 1
	return []struct {
		name string
		cfg  machine.Config
	}{
		{"baseline", base},
		{"line256", base.WithLineSize(256)},
		{"cache8MB", base.WithCacheSizes(8<<20/32, 8<<20)},
		{"prefetch4", pf},
		{"wb1", wb},
	}
}

// TestTraceReplayMatchesExecution is the record-once/replay-many
// contract for the sweep experiments (fig8-11), where every point runs
// on a fresh system: one baseline capture per query must reproduce, bit
// for bit, the report a fresh execution produces under every swept
// machine configuration.
func TestTraceReplayMatchesExecution(t *testing.T) {
	cfg := testConfig(0.001)
	for _, q := range []string{"Q6", "Q3"} {
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		recorded, tr := s.RunColdRecorded(q)

		sp, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if plain := sp.RunCold(q); !reflect.DeepEqual(plain, recorded) {
			t.Fatalf("%s: recording perturbed the run", q)
		}

		tr2, err := trace.Unmarshal(tr.Marshal())
		if err != nil {
			t.Fatalf("%s: blob round-trip: %v", q, err)
		}
		for _, c := range traceTestConfigs(cfg.Machine) {
			ccfg := cfg
			ccfg.Machine = c.cfg
			sf, err := NewSystem(ccfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", q, c.name, err)
			}
			fresh := sf.RunCold(q)
			replayed, err := ReplayTrace(tr2, c.cfg)
			if err != nil {
				t.Fatalf("%s/%s: replay: %v", q, c.name, err)
			}
			if !reflect.DeepEqual(fresh, replayed) {
				t.Errorf("%s/%s: skeleton replay diverges from execution", q, c.name)
			}
		}
	}
}

// TestTraceReplayColdMatchesSteadyState is the contract for the
// ablation sweeps, whose points share one system: after a warm-up run
// the reference stream is steady, so a trace recorded on the second run
// replays bit-identically against fresh steady-state executions under
// every subsequent configuration.
func TestTraceReplayColdMatchesSteadyState(t *testing.T) {
	cfg := testConfig(0.001)
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const q = "Q3"
	s.RunCold(q) // warm-up: the first run on a fresh system is not steady
	_, tr := s.RunColdRecorded(q)
	tr2, err := trace.Unmarshal(tr.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range traceTestConfigs(cfg.Machine) {
		if err := s.ReplaceMachine(c.cfg); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fresh := s.RunCold(q)
		live, err := s.ReplayCold(tr2)
		if err != nil {
			t.Fatalf("%s: live replay: %v", c.name, err)
		}
		if !reflect.DeepEqual(fresh, live) {
			t.Errorf("%s: live-system replay diverges from steady-state execution", c.name)
		}
	}
}

func TestTraceReplayRejectsWrongNodes(t *testing.T) {
	s, err := NewSystem(testConfig(0.001))
	if err != nil {
		t.Fatal(err)
	}
	_, tr := s.RunColdRecorded("Q6")
	cfg := s.Cfg.Machine
	cfg.Nodes = 8
	if _, err := ReplayTrace(tr, cfg); err == nil {
		t.Error("replay accepted a node-count mismatch")
	}
}

// TestSecondReplayReusesItsBuffers pins what a replay allocates once the
// arena is warm: the second replay of one trace at one configuration gets
// its skeleton, machine tables and decode buffers back from the first, so
// what is left is the engine, the cursors, the lock-operation goroutines
// and the report.
func TestSecondReplayReusesItsBuffers(t *testing.T) {
	s, err := NewSystem(testConfig(0.001))
	if err != nil {
		t.Fatal(err)
	}
	want, tr := s.RunColdRecorded("Q6")
	mcfg := s.Cfg.Machine
	if _, err := ReplayTrace(tr, mcfg); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := ReplayTrace(tr, mcfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("second replay diverges from the recorded run")
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("second replay allocated %d bytes", alloc)
	if alloc >= 256<<10 {
		t.Errorf("second replay allocated %d bytes, want < %d", alloc, 256<<10)
	}
}
