package machine_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/simm"
)

// TestReplayFootprint pins the bytes a Q3 replay at scale 0.002 leaves
// in the baseline machine's miss-history and directory leaves: the
// replay's two largest machine-side tables, which the heap carries for
// as long as the machine is pooled. It also pins that a machine handed
// down from a 16-byte-line replay holds, once it replays the baseline,
// exactly the directory leaves a fresh baseline machine holds: a
// line-size change drops the finer leaves rather than keeping them.
func TestReplayFootprint(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.DB.ScaleFactor = 0.002
	cfg.PrivateHeapBytes = 48 << 20
	s, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, tr := s.RunColdRecorded("Q3")

	// 2 bits of history per line: a 16-KB leaf per 1<<16 lines.
	// 4-byte directory entries: a 64-KB leaf per 1<<14 L2 lines.
	const wantSeen, wantDir = 557_056, 589_824
	const wantSeen16, wantDir16 = 1_081_344, 1_507_328
	check := func(label string, m *machine.Machine, seenWant, dirWant int) {
		t.Helper()
		if seen, dir := machine.TableBytes(m); seen != seenWant || dir != dirWant {
			t.Errorf("%s: seen leaves %d B, directory leaves %d B; want %d B and %d B", label, seen, dir, seenWant, dirWant)
		}
	}
	check("self-replay", s.Mach, wantSeen, wantDir)

	var mach *machine.Machine
	attach := func(e *sched.Engine, _ *simm.Memory) { mach = e.Machine() }
	for _, c := range []struct {
		label             string
		cfg               machine.Config
		seenWant, dirWant int
	}{
		{"skeleton replay, baseline", cfg.Machine, wantSeen, wantDir},
		{"skeleton replay, 16-byte lines", cfg.Machine.WithLineSize(16), wantSeen16, wantDir16},
		{"skeleton replay, baseline after 16-byte lines", cfg.Machine, wantSeen, wantDir},
	} {
		if _, err := core.ReplayTraceWith(tr, c.cfg, attach); err != nil {
			t.Fatal(err)
		}
		check(c.label, mach, c.seenWant, c.dirWant)
	}
}
