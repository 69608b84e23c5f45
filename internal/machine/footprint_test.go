package machine_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/simm"
)

// TestReplayFootprint pins the bytes a Q3 replay at scale 0.002 leaves
// in the machine's miss-history, directory and secondary-cache leaves:
// the replay's largest machine-side tables, which the heap carries for
// as long as the machine is pooled. It also pins that a machine handed
// down from a 16-byte-line replay holds, once it replays the baseline,
// exactly the directory leaves a fresh baseline machine holds: a
// line-size change drops the finer leaves rather than keeping them. The
// secondary caches are pinned at the baseline 128 KB, at the cache
// sweep's largest point (8 MB) and at the warm-cache experiment's
// geometry (32 MB): their leaves are made on first fill, so the large
// caches hold only the sets the replay touches.
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
	// 6 bytes per L2 line: a 3-KB leaf per 256 2-way sets. At 128 KB
	// every node makes all of its leaves (4 nodes × 2,048 lines × 6 B;
	// at 16-byte lines 4 × 8,192 × 6 B). At 8 MB the nodes make 829 of
	// their 1,024 leaves, at 32 MB 853 of 4,096: 2.5 MB where a cache
	// made whole would hold 4 × 131,072 × 6 B = 3.1 MB, and 2.6 MB where
	// it would hold 12.6 MB.
	const wantSeen, wantDir, wantL2 = 557_056, 589_824, 49_152
	const wantSeen16, wantDir16, wantL2at16 = 1_081_344, 1_507_328, 196_608
	const wantL2at8MB, wantL2at32MB = 829 * 3_072, 853 * 3_072
	check := func(label string, m *machine.Machine, seenWant, dirWant, l2Want int) {
		t.Helper()
		if seen, dir, l2 := machine.TableBytes(m); seen != seenWant || dir != dirWant || l2 != l2Want {
			t.Errorf("%s: seen leaves %d B, directory leaves %d B, L2 leaves %d B; want %d B, %d B and %d B",
				label, seen, dir, l2, seenWant, dirWant, l2Want)
		}
	}
	check("self-replay", s.Mach, wantSeen, wantDir, wantL2)

	var mach *machine.Machine
	attach := func(e *sched.Engine, _ *simm.Memory) { mach = e.Machine() }
	for _, c := range []struct {
		label                     string
		cfg                       machine.Config
		seenWant, dirWant, l2Want int
	}{
		{"skeleton replay, baseline", cfg.Machine, wantSeen, wantDir, wantL2},
		{"skeleton replay, 16-byte lines", cfg.Machine.WithLineSize(16), wantSeen16, wantDir16, wantL2at16},
		{"skeleton replay, baseline after 16-byte lines", cfg.Machine, wantSeen, wantDir, wantL2},
		{"skeleton replay, 8-MB L2", cfg.Machine.WithCacheSizes(256<<10, 8<<20), wantSeen, wantDir, wantL2at8MB},
		{"skeleton replay, 32-MB L2", cfg.Machine.WithCacheSizes(1<<20, 32<<20), wantSeen, wantDir, wantL2at32MB},
	} {
		if _, err := core.ReplayTraceWith(tr, c.cfg, attach); err != nil {
			t.Fatal(err)
		}
		check(c.label, mach, c.seenWant, c.dirWant, c.l2Want)
	}
}
