package machine

import (
	"fmt"
	"testing"

	"repro/internal/simm"
	"repro/internal/stats"
)

// The closed-form streams below have hit and miss counts that follow from
// the cache geometry alone (the expectations of *Estimate The Efficiency
// Of Multiprocessor's Cache Memory Work Algorithms*, PAPERS.md): a cold
// sweep misses once per line at each level, a region that fits is free
// to re-read, two addresses one L1 apart evict each other from the
// direct-mapped primary cache on every access, and a remote write turns
// the next read into a coherence miss. Every count is exact, at each
// line size of the paper's sweep, on a fresh machine, after Flush, and
// on a machine NewReusing hands across a line-size change, so they pin
// the packed miss history and the re-keyed directory.

// missWant is one stream's expected counters, CatData only.
type missWant struct {
	reads      uint64
	l1, l2     [stats.NumMissKinds]uint64
	invalidate uint64
}

// analyticStreams runs each stream on m over its own region of mem, with
// the counters reset before each, and checks its counts exactly. Every
// access is spaced far enough apart that write buffers drain and
// directories are idle, so only the stream's geometry decides a count.
func analyticStreams(t *testing.T, m *Machine, regions []*simm.Region, label string) {
	t.Helper()
	cfg := m.Config()
	l1, l2 := uint64(cfg.L1Line), uint64(cfg.L2Line)
	now := int64(0)
	step := func() int64 { now += 10000; return now }
	check := func(stream string, want missWant) {
		t.Helper()
		st := m.Stats()
		got := missWant{reads: st.Reads, invalidate: st.Invalidations}
		for k := range got.l1 {
			got.l1[k] = st.L1Misses[simm.CatData][k]
			got.l2[k] = st.L2Misses[simm.CatData][k]
		}
		if got != want {
			t.Errorf("%s, L2 line %d, %s: got %+v, want %+v", label, cfg.L2Line, stream, got, want)
		}
		m.ResetStats()
	}
	m.ResetStats()

	// A cold sequential sweep of twice the secondary cache, 8 bytes at a
	// time: every primary line misses cold once, and so does every
	// secondary line; what the sweep evicts it never returns to.
	sweep := regions[0]
	n := uint64(2 * cfg.L2Bytes)
	for off := uint64(0); off < n; off += 8 {
		m.Read(0, sweep.Base+simm.Addr(off), 8, step())
	}
	check("cold sweep", missWant{
		reads: n / 8,
		l1:    [stats.NumMissKinds]uint64{stats.Cold: n / l1},
		l2:    [stats.NumMissKinds]uint64{stats.Cold: n / l2},
	})

	// A region of exactly the primary cache's size, read once cold and
	// then again: the second pass hits every time.
	fits := regions[1]
	size := uint64(cfg.L1Bytes)
	for off := uint64(0); off < size; off += 8 {
		m.Read(1, fits.Base+simm.Addr(off), 8, step())
	}
	check("fitting region, first pass", missWant{
		reads: size / 8,
		l1:    [stats.NumMissKinds]uint64{stats.Cold: size / l1},
		l2:    [stats.NumMissKinds]uint64{stats.Cold: size / l2},
	})
	for off := uint64(0); off < size; off += 8 {
		m.Read(1, fits.Base+simm.Addr(off), 8, step())
	}
	check("fitting region, re-read", missWant{reads: size / 8})

	// Two addresses one primary cache apart share a direct-mapped set:
	// after the first two cold misses every read is a conflict miss,
	// while the 2-way secondary cache holds both.
	const alternations = 100
	a := regions[2].Base
	b := a + simm.Addr(cfg.L1Bytes)
	for i := 0; i < alternations; i++ {
		m.Read(2, a, 8, step())
		m.Read(2, b, 8, step())
	}
	check("L1-apart alternation", missWant{
		reads: 2 * alternations,
		l1:    [stats.NumMissKinds]uint64{stats.Cold: 2, stats.Conf: 2*alternations - 2},
		l2:    [stats.NumMissKinds]uint64{stats.Cold: 2},
	})

	// A line node 3 reads and node 0 writes between its reads: each
	// write invalidates node 3's copy, so every read after the first is
	// a coherence miss at both levels.
	const rounds = 10
	x := regions[3].Base
	for i := 0; i < rounds; i++ {
		m.Read(3, x, 8, step())
		m.Write(0, x, 8, step())
	}
	check("remote writes", missWant{
		reads:      rounds,
		l1:         [stats.NumMissKinds]uint64{stats.Cold: 1, stats.Cohe: rounds - 1},
		l2:         [stats.NumMissKinds]uint64{stats.Cold: 1, stats.Cohe: rounds - 1},
		invalidate: rounds,
	})
}

func TestAnalyticMissCounts(t *testing.T) {
	mem := simm.New(Baseline().Nodes)
	var regions []*simm.Region
	for i, size := range []uint64{2 * uint64(Baseline().L2Bytes), 8 << 10, 16 << 10, simm.PageSize} {
		regions = append(regions, mem.AllocRegion(fmt.Sprint("stream", i), size, simm.CatData, simm.AnyNode))
	}
	var m *Machine
	for _, line := range []int{16, 32, 64, 128, 256, 64, 16} {
		cfg := Baseline().WithLineSize(line)
		var err error
		if m, err = NewReusing(cfg, mem, m); err != nil {
			t.Fatal(err)
		}
		analyticStreams(t, m, regions, "after NewReusing")
		m.Flush()
		analyticStreams(t, m, regions, "after Flush")
	}
}
