package experiments

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/simm"
	"repro/internal/stats"
)

func testOptions(scale float64) Options {
	o := Defaults()
	o.Scale = scale
	return o
}

// newTestExec returns a GOMAXPROCS-wide Exec that is closed when the
// test ends.
func newTestExec(t *testing.T) *Exec {
	t.Helper()
	e := NewExec(0)
	t.Cleanup(e.Close)
	return e
}

func TestTable1Renders(t *testing.T) {
	tbl, err := newTestExec(t).Table1(testOptions(0.001))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 17 {
		t.Fatalf("rows = %d, want 17", len(tbl.Rows))
	}
	s := tbl.String()
	for _, q := range []string{"Q1", "Q12", "Q17"} {
		if !strings.Contains(s, q) {
			t.Errorf("table missing %s", q)
		}
	}
	// Spot checks against the paper: Q6 is SS+Aggr only; Q12 has the
	// merge join.
	for _, row := range tbl.Rows {
		switch row[0] {
		case "Q6":
			if row[1] != "x" || row[8] != "x" || row[2] != "" || row[4] != "" {
				t.Errorf("Q6 row wrong: %v", row)
			}
		case "Q12":
			if row[4] != "x" {
				t.Errorf("Q12 missing merge join: %v", row)
			}
		}
	}
}

func TestFig6And7Shapes(t *testing.T) {
	results, err := newTestExec(t).RunCold(testOptions(0.001), machine.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		tot := r.Report.Total()
		busy := float64(tot.Busy) / float64(tot.Total())
		if busy < 0.30 || busy > 0.90 {
			t.Errorf("%s: busy fraction %.2f out of plausible band", r.Query, busy)
		}
		g := tot.MemByGroup()
		shared := g[simm.GroupData] + g[simm.GroupIndex] + g[simm.GroupMetadata]
		switch r.Query {
		case "Q3":
			if g[simm.GroupIndex]+g[simm.GroupMetadata] < g[simm.GroupData] {
				t.Errorf("Q3: index+metadata (%d) should beat data (%d)",
					g[simm.GroupIndex]+g[simm.GroupMetadata], g[simm.GroupData])
			}
		case "Q6", "Q12":
			if 2*g[simm.GroupData] < shared {
				t.Errorf("%s: data (%d) should dominate shared stall (%d)", r.Query, g[simm.GroupData], shared)
			}
		}
		// Figure 7 shapes.
		st := r.Report.Machine
		if st.L1MissRate() <= 0 || st.L2MissRate() <= 0 {
			t.Errorf("%s: zero miss rates", r.Query)
		}
		// L1 misses are dominated by private data, mostly conflicts.
		l1 := st.L1Misses
		if l1.ByCategory(simm.CatPriv) < l1.Total()/2 {
			t.Errorf("%s: Priv L1 misses %d of %d, want majority", r.Query, l1.ByCategory(simm.CatPriv), l1.Total())
		}
		if l1[simm.CatPriv][stats.Conf] < l1[simm.CatPriv][stats.Cohe] {
			t.Errorf("%s: private L1 misses should be conflict-type", r.Query)
		}
		l2 := st.L2Misses
		switch r.Query {
		case "Q6", "Q12":
			// Sequential queries: L2 misses mostly Data, mostly cold.
			if 2*l2.ByCategory(simm.CatData) < l2.Total() {
				t.Errorf("%s: Data L2 misses not dominant", r.Query)
			}
			if l2[simm.CatData][stats.Cold] < l2[simm.CatData][stats.Conf] {
				t.Errorf("%s: Data L2 misses should be cold", r.Query)
			}
		case "Q3":
			// Index query: a mix, with metadata coherence misses present.
			meta := l2.ByCategory(simm.CatLockSLock) + l2.ByCategory(simm.CatBufDesc) +
				l2.ByCategory(simm.CatLockHash) + l2.ByCategory(simm.CatXidHash) +
				l2.ByCategory(simm.CatBufLook)
			if meta == 0 {
				t.Error("Q3: no metadata L2 misses")
			}
			cohe := l2[simm.CatLockSLock][stats.Cohe] + l2[simm.CatBufDesc][stats.Cohe]
			if cohe == 0 {
				t.Error("Q3: no coherence misses on lock/buffer metadata")
			}
			if l2.ByCategory(simm.CatIndex) == 0 {
				t.Error("Q3: no index misses")
			}
		}
	}
	// Rendering smoke checks.
	a, b := Fig6(results)
	if len(a.Rows) != 3 || len(b.Rows) != 3 {
		t.Error("Fig6 tables wrong size")
	}
	l1t, l2t, rates := Fig7(results[0])
	if len(l1t.Rows) != 8 || len(l2t.Rows) != 8 || !strings.Contains(rates, "miss rate") {
		t.Error("Fig7 rendering wrong")
	}
}

func TestLineSweepShapes(t *testing.T) {
	o := testOptions(0.001)
	o.Queries = []string{"Q6"}
	points, err := newTestExec(t).RunLineSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	// Data L2 misses fall monotonically with line size (spatial locality).
	prev := uint64(1 << 62)
	for _, ls := range LineSizes {
		d := findPoint(points, "Q6", ls).L2Miss[simm.GroupData]
		if d >= prev {
			t.Errorf("Data L2 misses not decreasing at %dB: %d >= %d", ls, d, prev)
		}
		prev = d
	}
	// Private L1 misses at 256B exceed those at 64B (fewer sets).
	p64 := findPoint(points, "Q6", 64).L1Miss[simm.GroupPriv]
	p256 := findPoint(points, "Q6", 256).L1Miss[simm.GroupPriv]
	if p256 <= p64 {
		t.Errorf("Priv L1 misses should rise with line size: 64B=%d 256B=%d", p64, p256)
	}
	// Execution time: 64-byte lines clearly beat 16-byte lines, and the
	// curve flattens out past 64 bytes (the gains stop; at the paper's
	// scale the minimum sits at 64 bytes).
	t64 := findPoint(points, "Q6", 64).Bd.Total()
	t256 := findPoint(points, "Q6", 256).Bd.Total()
	t16 := findPoint(points, "Q6", 16).Bd.Total()
	if t64 >= t16 {
		t.Errorf("64B should beat 16B: t16=%d t64=%d", t16, t64)
	}
	if float64(t256) < 0.95*float64(t64) {
		t.Errorf("curve should flatten past 64B: t64=%d t256=%d", t64, t256)
	}
	// Rendering.
	l1, l2 := Fig8(points, "Q6")
	if len(l1.Rows) != len(LineSizes) || len(l2.Rows) != len(LineSizes) {
		t.Error("Fig8 wrong size")
	}
	if tt := Fig9(points, "Q6"); len(tt.Rows) != len(LineSizes) {
		t.Error("Fig9 wrong size")
	}
}

func TestCacheSweepShapes(t *testing.T) {
	o := testOptions(0.001)
	o.Queries = []string{"Q6"}
	points, err := newTestExec(t).RunCacheSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	// Database data has no intra-query temporal locality: its L2 curve
	// is flat across cache sizes.
	base := findPoint(points, "Q6", 128).L2Miss[simm.GroupData]
	for _, kb := range CacheSizes {
		d := findPoint(points, "Q6", kb).L2Miss[simm.GroupData]
		ratio := float64(d) / float64(base)
		if ratio < 0.95 || ratio > 1.05 {
			t.Errorf("Data L2 curve not flat at %dKB: %.3f of baseline", kb, ratio)
		}
	}
	// Private L1 misses drop steeply with larger caches.
	p128 := findPoint(points, "Q6", 128).L1Miss[simm.GroupPriv]
	p8192 := findPoint(points, "Q6", 8192).L1Miss[simm.GroupPriv]
	if p8192*4 > p128 {
		t.Errorf("Priv L1 misses should collapse with big caches: %d -> %d", p128, p8192)
	}
}

func TestWarmCacheShapes(t *testing.T) {
	results, err := newTestExec(t).RunWarmCache(testOptions(0.001))
	if err != nil {
		t.Fatal(err)
	}
	get := func(target, warmer string) WarmResult {
		for _, r := range results {
			if r.Target == target && r.Warmer == warmer {
				return r
			}
		}
		t.Fatalf("missing scenario %s/%s", target, warmer)
		return WarmResult{}
	}
	// Q12 after Q12: most Data misses disappear.
	coldQ12 := get("Q12", "").L2[simm.GroupData]
	warmQ12 := get("Q12", "Q12").L2[simm.GroupData]
	if warmQ12*5 > coldQ12 {
		t.Errorf("Q12-after-Q12 Data misses %d vs cold %d: want >5x reduction", warmQ12, coldQ12)
	}
	// Q12 after Q3: only a few Data misses disappear.
	afterQ3 := get("Q12", "Q3").L2[simm.GroupData]
	if afterQ3*2 < coldQ12 {
		t.Errorf("Q12-after-Q3 removed too much: %d vs cold %d", afterQ3, coldQ12)
	}
	// Q3 after Q3: index misses shrink.
	coldQ3Idx := get("Q3", "").L2[simm.GroupIndex]
	warmQ3Idx := get("Q3", "Q3").L2[simm.GroupIndex]
	if warmQ3Idx >= coldQ3Idx {
		t.Errorf("Q3-after-Q3 index misses %d vs cold %d: want reduction", warmQ3Idx, coldQ3Idx)
	}
	// Q3 after Q12: data misses shrink (Q12 scanned the lineitem table).
	coldQ3Data := get("Q3", "").L2[simm.GroupData]
	warmQ3Data := get("Q3", "Q12").L2[simm.GroupData]
	if warmQ3Data >= coldQ3Data {
		t.Errorf("Q3-after-Q12 data misses %d vs cold %d: want reduction", warmQ3Data, coldQ3Data)
	}
	if tbl := Fig12(results, "Q12"); len(tbl.Rows) != 3 {
		t.Error("Fig12 wrong size")
	}
}

func TestPrefetchShapes(t *testing.T) {
	o := testOptions(0.001)
	o.Queries = []string{"Q6", "Q12"}
	results, err := newTestExec(t).RunPrefetch(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Prefetch == 0 {
			t.Errorf("%s: no prefetches issued", r.Query)
		}
		// Sequential queries gain.
		if r.Opt.Total() >= r.Base.Total() {
			t.Errorf("%s: prefetching did not help (%d -> %d)", r.Query, r.Base.Total(), r.Opt.Total())
		}
		// The gain comes from shared data, while private stall grows
		// slightly (cache disruption).
		if r.Opt.SMem() >= r.Base.SMem() {
			t.Errorf("%s: SMem did not shrink", r.Query)
		}
	}
	if tbl := Fig13(results); len(tbl.Rows) != 4 {
		t.Error("Fig13 wrong size")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &stats.Table{Header: []string{"A", "B"}}
	tbl.AddRow("x", 1.5)
	tbl.AddRow("longer", 22)
	out := tbl.String()
	if !strings.Contains(out, "longer") || !strings.Contains(out, "1.50") {
		t.Errorf("table rendering wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, rule, two rows
		t.Errorf("line count = %d", len(lines))
	}
}
