package core

import (
	"testing"

	"repro/internal/simm"
	"repro/internal/tpcd"
)

func testConfig(scale float64) Config {
	cfg := DefaultConfig()
	cfg.DB.ScaleFactor = scale
	cfg.PrivateHeapBytes = 48 << 20
	return cfg
}

func TestNewSystemAndRunQ6(t *testing.T) {
	s, err := NewSystem(testConfig(0.001))
	if err != nil {
		t.Fatal(err)
	}
	rep := s.RunCold("Q6")
	if rep.MaxClock() == 0 {
		t.Fatal("no simulated time elapsed")
	}
	total := rep.Total()
	if total.Busy == 0 || total.MemTotal() == 0 {
		t.Errorf("breakdown incomplete: %+v", total)
	}
	// Q6 is a Sequential query: shared stall dominated by Data.
	memG := total.MemByGroup()
	if memG[simm.GroupData] == 0 {
		t.Error("no Data stall in a sequential scan query")
	}
	if memG[simm.GroupData] < memG[simm.GroupIndex] {
		t.Error("Q6 should stall on Data, not Index")
	}
	for i, rows := range rep.Rows {
		if rows != 1 {
			t.Errorf("proc %d: Q6 rows = %d, want 1", i, rows)
		}
	}
}

func TestQ3IsIndexDominated(t *testing.T) {
	s, err := NewSystem(testConfig(0.001))
	if err != nil {
		t.Fatal(err)
	}
	rep := s.RunCold("Q3")
	total := rep.Total()
	memG := total.MemByGroup()
	shared := memG[simm.GroupData] + memG[simm.GroupIndex] + memG[simm.GroupMetadata]
	if shared == 0 {
		t.Fatal("no shared stall at all")
	}
	idxMeta := memG[simm.GroupIndex] + memG[simm.GroupMetadata]
	if idxMeta*2 < shared {
		t.Errorf("Q3 shared stall should be mostly Index+Metadata: %v", memG)
	}
}

func TestDeterministicAcrossSystems(t *testing.T) {
	run := func() int64 {
		s, err := NewSystem(testConfig(0.001))
		if err != nil {
			t.Fatal(err)
		}
		return s.RunCold("Q12").MaxClock()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic execution: %d vs %d", a, b)
	}
}

func TestReplaceMachineKeepsDatabase(t *testing.T) {
	s, err := NewSystem(testConfig(0.001))
	if err != nil {
		t.Fatal(err)
	}
	rep1 := s.RunCold("Q6")
	cfg := s.Cfg.Machine.WithLineSize(128)
	if err := s.ReplaceMachine(cfg); err != nil {
		t.Fatal(err)
	}
	rep2 := s.RunCold("Q6")
	if rep2.MaxClock() == 0 || rep2.MaxClock() == rep1.MaxClock() {
		t.Errorf("line-size change had no effect: %d vs %d", rep1.MaxClock(), rep2.MaxClock())
	}
	// Longer lines exploit the sequential query's spatial locality: the
	// shared-data stall must shrink (the total may not — the paper's
	// optimum is the baseline's 64-byte line).
	t1, t2 := rep1.Total(), rep2.Total()
	if s1, s2 := t1.SMem(), t2.SMem(); s2 >= s1 {
		t.Errorf("128-byte lines should cut Q6's shared stall: %d -> %d", s1, s2)
	}
	// And private data suffers from the halved set count.
	if p1, p2 := t1.PMem(), t2.PMem(); p2 <= p1 {
		t.Errorf("128-byte lines should raise Q6's private stall: %d -> %d", p1, p2)
	}
}

func TestWarmCacheReducesDataMisses(t *testing.T) {
	// Figure 12's core claim in miniature: running Q12 after Q12 with
	// big caches removes most Data misses.
	cfg := testConfig(0.001)
	cfg.Machine = cfg.Machine.WithCacheSizes(1<<20, 32<<20)
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cold := s.RunCold("Q12")
	coldData := cold.Machine.L2Misses.ByGroup()[simm.GroupData]

	s.ColdStart()
	s.RunQueries(s.SameQueryAllProcs("Q12")) // warm-up run
	s.ResetMeasurement()
	warm := s.RunQueries([]QueryRun{{Query: "Q12", Variant: 100}, {Query: "Q12", Variant: 101}, {Query: "Q12", Variant: 102}, {Query: "Q12", Variant: 103}})
	warmData := warm.Machine.L2Misses.ByGroup()[simm.GroupData]
	if warmData*2 > coldData {
		t.Errorf("warm Q12 data misses = %d, cold = %d: expected a large reduction", warmData, coldData)
	}
}

func TestIdleProcessors(t *testing.T) {
	s, err := NewSystem(testConfig(0.001))
	if err != nil {
		t.Fatal(err)
	}
	s.ColdStart()
	rep := s.RunQueries([]QueryRun{{Query: "Q6"}, {}, {}, {}})
	if rep.Clocks[0] == 0 {
		t.Error("proc 0 did not run")
	}
	if rep.Clocks[1] != 0 {
		t.Error("idle proc advanced")
	}
}

func TestAllQueriesThroughCore(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	s, err := NewSystem(testConfig(0.001))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range tpcd.QueryNames {
		rep := s.RunCold(q)
		if rep.MaxClock() == 0 {
			t.Errorf("%s: no time elapsed", q)
		}
	}
}

// TestNewFromLayoutAllocs pins what rebuilding the default
// configuration's address space from its layout allocates, as a replay
// skeleton does: the Memory, its three page tables (made, then grown
// once for the whole layout), its region table, and for each of the 18
// regions a descriptor and a chunk index. Before the page tables grew
// once, every page appended to each of them, 121 allocations in all.
func TestNewFromLayoutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes the allocation count")
	}
	s, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	l := s.Mem.Layout()
	if len(l.Regions) != 18 {
		t.Fatalf("default layout has %d regions, want 18", len(l.Regions))
	}
	const want = 1 + 3 + 3 + 1 + 18*2
	got := testing.AllocsPerRun(3, func() {
		if _, err := simm.NewFromLayout(l); err != nil {
			t.Fatal(err)
		}
	})
	if got != want {
		t.Errorf("NewFromLayout of the default layout: %v allocations, want %d", got, want)
	}
}
