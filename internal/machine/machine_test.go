package machine

import (
	"testing"

	"repro/internal/simm"
	"repro/internal/stats"
)

// testRig builds a 4-node baseline machine with one shared Data region
// homed on node 0 and one homed on node 1.
func testRig(t *testing.T, cfg Config) (*Machine, *simm.Memory, simm.Addr, simm.Addr) {
	t.Helper()
	mem := simm.New(cfg.Nodes)
	r0 := mem.AllocRegion("data0", 1<<20, simm.CatData, 0)
	r1 := mem.AllocRegion("data1", 1<<20, simm.CatData, 1)
	m, err := New(cfg, mem)
	if err != nil {
		t.Fatal(err)
	}
	return m, mem, r0.Base, r1.Base
}

func TestConfigValidate(t *testing.T) {
	good := Baseline()
	if err := good.Validate(); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}
	bad := good
	bad.L1Line = 48
	if bad.Validate() == nil {
		t.Error("48-byte line should be rejected")
	}
	bad = good
	bad.Nodes = 0
	if bad.Validate() == nil {
		t.Error("0 nodes should be rejected")
	}
	bad = good
	bad.L2Line = 16 // smaller than L1 line
	if bad.Validate() == nil {
		t.Error("L2 line < L1 line should be rejected")
	}
}

func TestWithLineSizeHalvesL1(t *testing.T) {
	c := Baseline().WithLineSize(128)
	if c.L2Line != 128 || c.L1Line != 64 {
		t.Errorf("got L1=%d L2=%d", c.L1Line, c.L2Line)
	}
}

func TestReadColdMissThenHit(t *testing.T) {
	m, _, a0, _ := testRig(t, Baseline())
	// Node 0 reading its local region: cold L1+L2 miss, local memory.
	r := m.Read(0, a0, 8, 0)
	if r.Stall != m.cfg.LocalMem {
		t.Errorf("cold local read stall = %d, want %d", r.Stall, m.cfg.LocalMem)
	}
	if r.Cat != simm.CatData {
		t.Errorf("cat = %v", r.Cat)
	}
	if got := m.st.L1Misses[simm.CatData][stats.Cold]; got != 1 {
		t.Errorf("L1 cold misses = %d, want 1", got)
	}
	if got := m.st.L2Misses[simm.CatData][stats.Cold]; got != 1 {
		t.Errorf("L2 cold misses = %d, want 1", got)
	}
	// Same line again: pure hit.
	r = m.Read(0, a0, 8, 100)
	if r.Stall != 0 {
		t.Errorf("hit stall = %d, want 0", r.Stall)
	}
	// Neighboring L1 line within the same L2 line: L1 miss, L2 hit.
	r = m.Read(0, a0+32, 8, 200)
	if r.Stall != m.cfg.L2HitLat {
		t.Errorf("L2-hit stall = %d, want %d", r.Stall, m.cfg.L2HitLat)
	}
}

func TestRemoteReadLatency(t *testing.T) {
	m, _, _, a1 := testRig(t, Baseline())
	// Node 0 reading node 1's region: 2-hop remote, clean.
	r := m.Read(0, a1, 8, 0)
	if r.Stall != m.cfg.Remote2Hop {
		t.Errorf("remote clean read stall = %d, want %d", r.Stall, m.cfg.Remote2Hop)
	}
}

func TestDirtyRemoteIsThreeHop(t *testing.T) {
	m, _, _, a1 := testRig(t, Baseline())
	// Node 2 takes the line (homed at node 1) modified.
	if r := m.Sync(2, a1, 0); r.Stall != m.cfg.Remote2Hop {
		t.Fatalf("sync acquire stall = %d, want %d", r.Stall, m.cfg.Remote2Hop)
	}
	// Node 0 reads: home is node 1, owner is node 2 -> 3-hop.
	r := m.Read(0, a1, 8, 1000)
	if r.Stall != m.cfg.Remote3Hop {
		t.Errorf("dirty-remote read stall = %d, want %d", r.Stall, m.cfg.Remote3Hop)
	}
	// The read downgraded the owner; a second reader sees a clean line.
	r = m.Read(3, a1, 8, 2000)
	if r.Stall != m.cfg.Remote2Hop {
		t.Errorf("after downgrade, read stall = %d, want %d", r.Stall, m.cfg.Remote2Hop)
	}
}

func TestCoherenceMissClassification(t *testing.T) {
	m, _, a0, _ := testRig(t, Baseline())
	m.Read(0, a0, 8, 0) // node 0 caches the line
	m.Sync(1, a0, 100)  // node 1 takes it exclusive -> invalidates node 0
	r := m.Read(0, a0, 8, 200)
	if r.Stall == 0 {
		t.Fatal("expected a miss after invalidation")
	}
	if got := m.st.L2Misses[simm.CatData][stats.Cohe]; got != 1 {
		t.Errorf("L2 coherence misses = %d, want 1 (table: %v)", got, m.st.L2Misses)
	}
	if got := m.st.L1Misses[simm.CatData][stats.Cohe]; got != 1 {
		t.Errorf("L1 coherence misses = %d, want 1", got)
	}
	if m.st.Invalidations == 0 {
		t.Error("no invalidations recorded")
	}
}

func TestConflictMissClassification(t *testing.T) {
	cfg := Baseline()
	m, _, a0, _ := testRig(t, cfg)
	// Two addresses mapping to the same direct-mapped L1 set:
	// set = (line/32) % 128, so +4096 collides.
	b := a0 + simm.Addr(cfg.L1Bytes)
	m.Read(0, a0, 8, 0)
	m.Read(0, b, 8, 100) // evicts a0 from L1 (L2 is 2-way: both fit)
	r := m.Read(0, a0, 8, 200)
	if r.Stall != m.cfg.L2HitLat {
		t.Errorf("conflict refetch stall = %d, want L2 hit %d", r.Stall, m.cfg.L2HitLat)
	}
	if got := m.st.L1Misses[simm.CatData][stats.Conf]; got != 1 {
		t.Errorf("L1 conflict misses = %d, want 1", got)
	}
}

func TestL2LRUAndConflict(t *testing.T) {
	cfg := Baseline()
	m, _, a0, _ := testRig(t, cfg)
	// Three lines in the same 2-way L2 set: stride = sets*lineSize.
	stride := simm.Addr(cfg.L2Bytes / cfg.L2Ways)
	m.Read(0, a0, 8, 0)
	m.Read(0, a0+stride, 8, 10)
	m.Read(0, a0+2*stride, 8, 20) // evicts a0 (LRU)
	// The stride collides in the direct-mapped L1 too, so this is an L1
	// miss — but the recently-used line must still be an L2 hit.
	r := m.Read(0, a0+stride, 8, 30)
	if r.Stall != m.cfg.L2HitLat {
		t.Errorf("recently used line should hit in L2, stall=%d", r.Stall)
	}
	m.Read(0, a0, 8, 40)
	if got := m.st.L2Misses[simm.CatData][stats.Conf]; got != 1 {
		t.Errorf("L2 conflict misses = %d, want 1", got)
	}
}

func TestWriteBufferOverflowAndForwarding(t *testing.T) {
	cfg := Baseline()
	m, _, a0, _ := testRig(t, cfg)
	// Distinct L2 lines so nothing coalesces.
	now := int64(0)
	var stalled bool
	for i := 0; i < cfg.WriteBufEntries+4; i++ {
		r := m.Write(0, a0+simm.Addr(i*cfg.L2Line), 8, now)
		if r.Stall > 0 {
			stalled = true
		}
	}
	if !stalled {
		t.Error("expected write-buffer overflow stall")
	}
	if m.st.WBOverflows == 0 {
		t.Error("overflow counter not incremented")
	}
	// A read of a buffered line is forwarded with no stall.
	r := m.Read(0, a0, 8, now)
	if r.Stall != 0 {
		t.Errorf("forwarded read stall = %d, want 0", r.Stall)
	}
	// Coalescing: a second write to a pending line adds no entry and no stall.
	r = m.Write(0, a0+4, 8, now)
	if r.Stall != 0 {
		t.Errorf("coalesced write stall = %d", r.Stall)
	}
}

func TestWriteBufferDrains(t *testing.T) {
	cfg := Baseline()
	m, _, a0, _ := testRig(t, cfg)
	for i := 0; i < cfg.WriteBufEntries; i++ {
		m.Write(0, a0+simm.Addr(i*cfg.L2Line), 8, 0)
	}
	// Far in the future everything has drained: no stall on more writes.
	r := m.Write(0, a0+simm.Addr(100*cfg.L2Line), 8, 1_000_000)
	if r.Stall != 0 {
		t.Errorf("post-drain write stall = %d", r.Stall)
	}
}

// TestWriteBufferSteadyStateAllocatesNothing pins the in-place
// compaction: a steady stream of buffered stores, each advancing the
// clock by its stall as the engine does, keeps the pending list inside
// one backing array — pruning must not walk the slice off its front and
// force WriteCat's append to reallocate.
func TestWriteBufferSteadyStateAllocatesNothing(t *testing.T) {
	cfg := Baseline()
	m, _, a0, _ := testRig(t, cfg)
	now, i := int64(0), 0
	store := func() {
		r := m.WriteCat(0, a0+simm.Addr(i%1024*cfg.L2Line), 8, now, simm.CatData)
		now += 10 + r.Stall
		i++
	}
	for i < 4096 { // warm-up: own every line, grow the buffer to its depth
		store()
	}
	// AllocsPerRun reports whole allocations per run, so a run is many
	// stores: one reallocation every buffer's-worth would round to 0.
	burst := func() {
		for j := 0; j < 256; j++ {
			store()
		}
	}
	if got := testing.AllocsPerRun(100, burst); got != 0 {
		t.Errorf("256 buffered WriteCat calls allocate %v times, want 0", got)
	}
	if m.st.WBOverflows == 0 {
		t.Error("stream never filled the write buffer: the test exercised no pruning under load")
	}
}

func TestUpgradeInvalidatesSharers(t *testing.T) {
	m, _, a0, _ := testRig(t, Baseline())
	m.Read(0, a0, 8, 0)
	m.Read(1, a0, 8, 10)
	// Node 1 writes: upgrade, node 0 invalidated.
	m.Write(1, a0, 8, 20)
	r := m.Read(0, a0, 8, 20_000) // let the drain complete
	if r.Stall == 0 {
		t.Error("node 0 should miss after node 1's upgrade")
	}
	if got := m.st.L2Misses[simm.CatData][stats.Cohe]; got != 1 {
		t.Errorf("coherence misses = %d, want 1", got)
	}
}

func TestSyncSpinsLocallyWhenModified(t *testing.T) {
	m, _, a0, _ := testRig(t, Baseline())
	m.Sync(0, a0, 0)
	r := m.Sync(0, a0, 100)
	if r.Stall != m.cfg.L2HitLat {
		t.Errorf("local re-sync stall = %d, want %d", r.Stall, m.cfg.L2HitLat)
	}
}

func TestDirectoryContention(t *testing.T) {
	m, _, a0, _ := testRig(t, Baseline())
	// Two different lines with the same home, requested at the same
	// cycle: the second one queues behind the first.
	r1 := m.Read(1, a0, 8, 0)
	r2 := m.Read(2, a0+simm.Addr(m.cfg.L2Line), 8, 0)
	if r2.Stall != r1.Stall+m.cfg.DirOccupancy {
		t.Errorf("queued read stall = %d, want %d", r2.Stall, r1.Stall+m.cfg.DirOccupancy)
	}
}

func TestPrefetchReducesSequentialMisses(t *testing.T) {
	run := func(pf bool) uint64 {
		cfg := Baseline()
		cfg.PrefetchData = pf
		m, _, a0, _ := testRig(t, cfg)
		now := int64(0)
		for off := 0; off < 1<<14; off += 8 {
			r := m.Read(0, a0+simm.Addr(off), 8, now)
			now += 1 + r.Stall
		}
		return m.st.L1ReadMisses
	}
	base, opt := run(false), run(true)
	if opt >= base {
		t.Errorf("prefetch did not reduce misses: base=%d opt=%d", base, opt)
	}
	if opt == 0 {
		t.Error("prefetch cannot remove the very first miss")
	}
}

func TestPrefetchStopsAtNonDataCategory(t *testing.T) {
	cfg := Baseline()
	cfg.PrefetchData = true
	mem := simm.New(cfg.Nodes)
	rd := mem.AllocRegion("data", simm.PageSize, simm.CatData, 0)
	mem.AllocRegion("meta", simm.PageSize, simm.CatLockHash, 0)
	m, err := New(cfg, mem)
	if err != nil {
		t.Fatal(err)
	}
	// Read near the end of the Data region: prefetches must not run
	// into the metadata region.
	m.Read(0, rd.End()-8, 8, 0)
	if got := m.st.ReadsByCat[simm.CatLockHash]; got != 0 {
		t.Errorf("prefetch leaked into metadata: %d reads", got)
	}
}

func TestFlushRestoresColdStart(t *testing.T) {
	m, _, a0, _ := testRig(t, Baseline())
	m.Read(0, a0, 8, 0)
	m.Flush()
	m.ResetStats()
	m.Read(0, a0, 8, 0)
	if got := m.st.L1Misses[simm.CatData][stats.Cold]; got != 1 {
		t.Errorf("post-flush miss not cold: %v", m.st.L1Misses[simm.CatData])
	}
}

func TestResetStatsKeepsWarmCaches(t *testing.T) {
	m, _, a0, _ := testRig(t, Baseline())
	m.Read(0, a0, 8, 0)
	m.ResetStats()
	r := m.Read(0, a0, 8, 100)
	if r.Stall != 0 {
		t.Errorf("warm read after ResetStats stalled %d", r.Stall)
	}
	if m.st.L1ReadMisses != 0 {
		t.Errorf("unexpected misses after reset: %d", m.st.L1ReadMisses)
	}
}

func TestReadSpanningTwoLines(t *testing.T) {
	m, _, a0, _ := testRig(t, Baseline())
	// An 8-byte read straddling an L1 line boundary touches two lines.
	a := a0 + 28
	m.Read(0, a, 8, 0)
	if m.st.Reads != 2 {
		t.Errorf("straddling read counted %d line accesses, want 2", m.st.Reads)
	}
}

func TestMissRates(t *testing.T) {
	m, _, a0, _ := testRig(t, Baseline())
	m.Read(0, a0, 8, 0)   // miss
	m.Read(0, a0, 8, 500) // hit
	m.Read(0, a0, 8, 600) // hit
	m.Read(0, a0, 8, 700) // hit
	if got := m.st.L1MissRate(); got != 0.25 {
		t.Errorf("L1 miss rate = %v, want 0.25", got)
	}
	if got := m.st.L2MissRate(); got != 0.25 {
		t.Errorf("L2 miss rate = %v, want 0.25", got)
	}
}

func TestStatsByGroup(t *testing.T) {
	var mc stats.MissCounts
	mc.Add(simm.CatPriv, stats.Conf)
	mc.Add(simm.CatData, stats.Cold)
	mc.Add(simm.CatLockSLock, stats.Cohe)
	mc.Add(simm.CatBufDesc, stats.Cohe)
	g := mc.ByGroup()
	if g[simm.GroupPriv] != 1 || g[simm.GroupData] != 1 || g[simm.GroupMetadata] != 2 {
		t.Errorf("groups = %v", g)
	}
	if mc.Total() != 4 || mc.ByKind(stats.Cohe) != 2 {
		t.Errorf("totals wrong: %d %d", mc.Total(), mc.ByKind(stats.Cohe))
	}
}

func TestLatePrefetchChargesRemainder(t *testing.T) {
	cfg := Baseline()
	cfg.PrefetchData = true
	m, _, a0, _ := testRig(t, cfg)
	// Access line 0: prefetches lines 1..4 with arrival = now + latency.
	r0 := m.Read(0, a0, 8, 0)
	if m.st.Prefetches == 0 {
		t.Fatal("no prefetches issued")
	}
	// Demand the prefetched neighbor immediately: it is in the L1 but
	// its data has not arrived, so the access stalls for the remainder.
	r1 := m.Read(0, a0+simm.Addr(cfg.L1Line), 8, 1)
	if r1.Stall == 0 {
		t.Error("immediate use of a prefetched line should stall")
	}
	if r1.Stall >= r0.Stall {
		t.Errorf("late-prefetch stall %d should be below a full miss %d", r1.Stall, r0.Stall)
	}
	if m.st.LatePrefetches == 0 {
		t.Error("late prefetch not counted")
	}
	// Far in the future the line has arrived: free hit.
	r2 := m.Read(0, a0+simm.Addr(2*cfg.L1Line), 8, 100000)
	if r2.Stall != 0 {
		t.Errorf("arrived prefetch should be a free hit, stall=%d", r2.Stall)
	}
}

func TestTransferTimeScalesWithLineSize(t *testing.T) {
	run := func(l2line int) int64 {
		cfg := Baseline().WithLineSize(l2line)
		m, _, a0, _ := testRig(t, cfg)
		return m.Read(0, a0, 8, 0).Stall
	}
	base, long := run(64), run(256)
	if long <= base {
		t.Errorf("256B-line miss (%d) should cost more than 64B (%d)", long, base)
	}
	short := run(16)
	if short >= base {
		t.Errorf("16B-line miss (%d) should cost less than 64B (%d)", short, base)
	}
}

func TestSyncCountsMissOnlyOnL2Miss(t *testing.T) {
	m, _, a0, _ := testRig(t, Baseline())
	m.Sync(0, a0, 0) // cold: one counted miss
	before := m.st.L1ReadMisses
	m.Sync(0, a0, 100) // locally modified: no new miss
	if m.st.L1ReadMisses != before {
		t.Errorf("local re-sync added misses")
	}
}

func TestSnoopingBusContention(t *testing.T) {
	cfg := Baseline()
	cfg.SnoopingBus = true
	m, _, a0, _ := testRig(t, cfg)
	// Two misses at the same cycle: the second queues behind the first
	// on the single bus regardless of home node.
	r1 := m.Read(0, a0, 8, 0)
	r2 := m.Read(1, a0+simm.Addr(cfg.L2Line), 8, 0)
	if r2.Stall != r1.Stall+cfg.BusLat {
		t.Errorf("queued bus read stall = %d, want %d", r2.Stall, r1.Stall+cfg.BusLat)
	}
	// Bus transactions cost BusLat + memory, independent of home.
	if r1.Stall != cfg.BusLat+cfg.LocalMem {
		t.Errorf("bus miss stall = %d, want %d", r1.Stall, cfg.BusLat+cfg.LocalMem)
	}
}

func TestSnoopingBusCoherence(t *testing.T) {
	cfg := Baseline()
	cfg.SnoopingBus = true
	m, _, a0, _ := testRig(t, cfg)
	m.Read(0, a0, 8, 0)
	m.Sync(1, a0, 10_000) // broadcast invalidation
	r := m.Read(0, a0, 8, 20_000)
	if r.Stall == 0 {
		t.Error("invalidated reader should miss")
	}
	if got := m.st.L2Misses[simm.CatData][stats.Cohe]; got != 1 {
		t.Errorf("coherence misses = %d, want 1", got)
	}
}
