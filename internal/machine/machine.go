package machine

import (
	"fmt"

	"repro/internal/simm"
	"repro/internal/stats"
)

// dirEntry is the full-bit-vector directory state of one secondary-cache
// line, stored at the line's home node.
type dirEntry struct {
	sharers  uint16 // nodes holding the line in their secondary cache
	owner    int8   // valid when modified
	modified bool
}

// wbEntry is one pending store in a node's coalescing write buffer.
type wbEntry struct {
	line uint64 // secondary-cache line address
	done int64  // cycle at which the drain completes
	cat  simm.Category
}

type node struct {
	l1 *l1Cache
	l2 *l2Cache
	wb []wbEntry
	// pfReady records when a prefetched primary line's data actually
	// arrives; a demand access before that stalls for the remainder.
	// It is empty unless prefetching is enabled, and the hot path gates
	// on its length before probing.
	pfReady *timeTab
	// pfQueue holds outstanding prefetches in issue order, backing
	// pfReady's expiry: a node is probed only by its own processor,
	// whose clock never decreases, so once now passes an entry's
	// arrival time the entry can never stall anyone again and can be
	// purged. This keeps pfReady at in-flight size (its probes stay in
	// the host's cache) and re-enables the L1 fast path between scans —
	// both charge-identical, since an arrived entry's probe outcome is
	// exactly an absent entry's.
	pfQueue []pfEntry
	pfHead  int
}

type pfEntry struct {
	line  uint64
	ready int64
}

// expirePrefetches purges prefetches that have arrived by now. Issue
// order is only approximately arrival order (fetch latency varies), so
// the scan stops at the first still-outstanding entry; stragglers
// behind it expire on a later call.
func (nd *node) expirePrefetches(now int64) {
	for nd.pfHead < len(nd.pfQueue) {
		e := nd.pfQueue[nd.pfHead]
		if e.ready > now {
			return
		}
		nd.pfHead++
		// Delete only if the table still holds this issue's arrival
		// time: a demand probe may have deleted the entry already, or a
		// re-prefetch superseded it.
		if v, ok := nd.pfReady.get(e.line); ok && v == e.ready {
			nd.pfReady.del(e.line)
		}
	}
	nd.pfQueue = nd.pfQueue[:0]
	nd.pfHead = 0
}

// AccessResult reports the outcome of one processor memory reference:
// how long the processor stalled and which data-structure category the
// reference touched (so the execution engine can attribute the stall).
type AccessResult struct {
	Stall int64
	Cat   simm.Category
}

// Machine is the simulated memory system. It is driven by the execution
// engine one reference at a time, in global timestamp order; it is not
// safe for concurrent use.
type Machine struct {
	cfg   Config
	mem   *simm.Memory
	nodes []*node
	dir   *dirTab
	// dirFreeAt models directory occupancy at each home node: requests
	// queue behind one another, which is where hot-spot contention
	// (e.g. on LockSLock's home) comes from. Under SnoopingBus,
	// dirFreeAt[0] doubles as the single bus's busy-until time.
	dirFreeAt []int64
	st        Stats

	// Line-size-dependent transfer adjustments (see Config.TransferPerWord).
	l1FillLat int64
	l2Extra   int64
}

// New builds a machine over the given simulated address space.
func New(cfg Config, mem *simm.Memory) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if mem.Nodes() != cfg.Nodes {
		return nil, fmt.Errorf("machine: memory built for %d nodes, config has %d", mem.Nodes(), cfg.Nodes)
	}
	m := &Machine{
		cfg:       cfg,
		mem:       mem,
		dir:       newDirTab(),
		dirFreeAt: make([]int64, cfg.Nodes),
	}
	m.l1FillLat = cfg.L2HitLat + int64(cfg.L1Line-32)/8*cfg.TransferPerWord
	if m.l1FillLat < 8 {
		m.l1FillLat = 8
	}
	m.l2Extra = int64(cfg.L2Line-64) / 8 * cfg.TransferPerWord
	if m.l2Extra < -40 {
		m.l2Extra = -40
	}
	for i := 0; i < cfg.Nodes; i++ {
		m.nodes = append(m.nodes, &node{
			l1:      newL1(cfg.L1Bytes, cfg.L1Line),
			l2:      newL2(cfg.L2Bytes, cfg.L2Line, cfg.L2Ways),
			pfReady: newTimeTab(),
		})
	}
	return m, nil
}

// NewReusing is New with allocation reuse from a retired machine over
// the same memory. When the configuration matches exactly, the donor
// itself is flushed back to a cold start and returned; otherwise a new
// machine adopts the donor's grown directory, prefetch tables, and
// (geometry permitting) cache arrays after resetting them. Either way
// the result is behaviorally identical to New: flush/reset restore the
// exact cold state every table starts from, they just keep capacity.
func NewReusing(cfg Config, mem *simm.Memory, donor *Machine) (*Machine, error) {
	if donor == nil || donor.mem != mem {
		return New(cfg, mem)
	}
	if donor.cfg == cfg {
		donor.Flush()
		donor.ResetStats()
		return donor, nil
	}
	m, err := New(cfg, mem)
	if err != nil {
		return nil, err
	}
	donor.dir.reset()
	m.dir = donor.dir
	if len(m.nodes) == len(donor.nodes) {
		for i, nd := range m.nodes {
			d := donor.nodes[i]
			d.pfReady.reset()
			nd.pfReady = d.pfReady
			if cfg.L1Bytes == donor.cfg.L1Bytes && cfg.L1Line == donor.cfg.L1Line {
				d.l1.flush()
				nd.l1 = d.l1
			}
			if cfg.L2Bytes == donor.cfg.L2Bytes && cfg.L2Line == donor.cfg.L2Line && cfg.L2Ways == donor.cfg.L2Ways {
				d.l2.flush()
				nd.l2 = d.l2
			}
		}
	}
	return m, nil
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Stats returns the accumulated counters.
func (m *Machine) Stats() *Stats { return &m.st }

// ResetStats clears counters but preserves all cache, directory, and
// write-buffer state. The warm-cache experiments (Figure 12) measure the
// second query of a pair this way.
func (m *Machine) ResetStats() { m.st = Stats{} }

// Flush empties caches, write buffers, and the directory, and forgets
// miss-classification history, returning the machine to a cold start.
func (m *Machine) Flush() {
	for _, n := range m.nodes {
		n.l1.flush()
		n.l2.flush()
		n.wb = n.wb[:0]
		n.pfReady.reset()
		n.pfQueue = n.pfQueue[:0]
		n.pfHead = 0
	}
	m.dir.reset()
	for i := range m.dirFreeAt {
		m.dirFreeAt[i] = 0
	}
}

// dirQueue charges directory occupancy at the home node and returns the
// queueing delay suffered.
func (m *Machine) dirQueue(home int, now int64) int64 {
	start := now
	if m.dirFreeAt[home] > start {
		start = m.dirFreeAt[home]
	}
	m.dirFreeAt[home] = start + m.cfg.DirOccupancy
	return start - now
}

// invalidateOthers removes every copy of the line except node n's,
// marking the victims as coherence-invalidated.
func (m *Machine) invalidateOthers(n int, line uint64, e *dirEntry) {
	for q := 0; q < m.cfg.Nodes; q++ {
		if q == n || e.sharers&(1<<uint(q)) == 0 {
			continue
		}
		m.nodes[q].l2.invalidate(line)
		m.nodes[q].l1.invalidateRange(line, uint64(m.cfg.L2Line), absentInvalidated)
		m.st.Invalidations++
	}
	e.sharers &= 1 << uint(n)
}

// busQueue arbitrates for the single snooping bus: the transaction
// starts when the bus frees and occupies it for BusLat.
func (m *Machine) busQueue(now int64) int64 {
	start := now
	if m.dirFreeAt[0] > start {
		start = m.dirFreeAt[0]
	}
	m.dirFreeAt[0] = start + m.cfg.BusLat
	return start - now
}

// fetchLine performs the coherence transaction that brings a secondary
// line to node n (shared or exclusive) and returns the round-trip
// latency including interconnect queueing. It mutates directory/snoop
// state and remote caches but does not insert the line into n's caches.
func (m *Machine) fetchLine(n int, line uint64, now int64, exclusive bool) int64 {
	e := m.dir.entry(line)
	forward := e.modified && int(e.owner) != n && e.sharers != 0

	var queue, lat int64
	if m.cfg.SnoopingBus {
		// One bus transaction: arbitration + snoop + memory (or a
		// cache-to-cache transfer from the dirty owner, same cost).
		queue = m.busQueue(now)
		lat = m.cfg.BusLat + m.cfg.LocalMem
	} else {
		home := m.mem.HomeOf(simm.Addr(line))
		queue = m.dirQueue(home, now)
		switch {
		case forward:
			lat = m.cfg.Remote3Hop
		case home == n:
			lat = m.cfg.LocalMem
		default:
			lat = m.cfg.Remote2Hop
		}
	}
	lat += m.l2Extra

	if exclusive {
		m.invalidateOthers(n, line, e)
		e.sharers = 1 << uint(n)
		e.owner = int8(n)
		e.modified = true
	} else {
		if forward {
			// The dirty third node supplies the data and keeps a
			// shared copy.
			m.nodes[e.owner].l2.setState(line, stShared)
			e.modified = false
		}
		e.sharers |= 1 << uint(n)
		if e.modified && int(e.owner) == n {
			// Re-fetch of our own dirty line (evicted from L2 but
			// still directory-owned) cannot happen: eviction writes
			// back. Keep the invariant explicit.
			e.modified = false
		}
	}
	return queue + lat
}

// insertL2 places the line into node n's secondary cache, handling
// victim writeback and L1 inclusion.
func (m *Machine) insertL2(n int, line uint64, st uint8) {
	nd := m.nodes[n]
	victim, vstate := nd.l2.fill(line, st)
	if victim == 0 {
		return
	}
	ve := m.dir.entry(victim)
	if vstate == stModified {
		ve.modified = false
	}
	ve.sharers &^= 1 << uint(n)
	// Inclusion: the primary cache may not hold lines absent from the
	// secondary cache. This is a capacity effect, not coherence.
	nd.l1.invalidateRange(victim, uint64(m.cfg.L2Line), absentReplaced)
}

// wbPending reports whether node n's write buffer holds an undrained
// store to the given secondary line (read forwarding), pruning drained
// entries as a side effect. Pruning compacts in place: re-slicing off
// the front would walk the slice down its backing array until WriteCat's
// append had to reallocate, every few stores.
func (m *Machine) wbPending(n int, line uint64, now int64) bool {
	nd := m.nodes[n]
	i := 0
	for i < len(nd.wb) && nd.wb[i].done <= now {
		i++
	}
	if i > 0 {
		nd.wb = nd.wb[:copy(nd.wb, nd.wb[i:])]
	}
	for _, e := range nd.wb {
		if e.line == line {
			return true
		}
	}
	return false
}

// Read simulates a processor load of size bytes at address a issued by
// node n at the given cycle. The processor stalls on primary-cache read
// misses for the full round trip.
func (m *Machine) Read(n int, a simm.Addr, size int, now int64) AccessResult {
	return m.ReadCat(n, a, size, now, m.mem.CategoryOf(a))
}

// ReadCat is Read with the category of the reference's first byte
// precomputed — the engine's traced accessors resolve the page table
// once for both the data load and the attribution.
func (m *Machine) ReadCat(n int, a simm.Addr, size int, now int64, firstCat simm.Category) AccessResult {
	nd := m.nodes[n]
	addr := uint64(a)
	if nd.pfReady.len() > 0 {
		nd.expirePrefetches(now)
	}
	// Fast path for the overwhelmingly common reference: a single-line
	// access that hits the primary cache while the write buffer is
	// drained and no prefetch is outstanding. It touches only the L1
	// tag array — no page-table walk, no hash probes, no allocation, no
	// stall.
	if first := addr &^ (nd.l1.lineSize - 1); addr+uint64(size) <= first+nd.l1.lineSize &&
		len(nd.wb) == 0 && nd.pfReady.len() == 0 &&
		nd.l1.lines[nd.l1.setOf(first)] == first {
		m.st.Reads++
		m.st.ReadsByCat[firstCat]++
		return AccessResult{Cat: firstCat}
	}
	res := AccessResult{Cat: firstCat}
	end := addr + uint64(size)
	for line := nd.l1.lineOf(addr); line < end; line += nd.l1.lineSize {
		cat := firstCat
		if line > addr {
			// Later lines of a multi-line access may cross a page.
			cat = m.mem.CategoryOf(simm.Addr(line))
		}
		m.st.Reads++
		m.st.ReadsByCat[cat]++
		g := nd.l2.lineOf(line)
		if m.wbPending(n, g, now) {
			// Forwarded from a buffered store: no stall.
			continue
		}
		if nd.l1.lookup(line) {
			// A prefetched line may not have arrived yet: stall for
			// the remainder (a late prefetch hides only part of the
			// miss latency).
			if nd.pfReady.len() > 0 {
				if ready, ok := nd.pfReady.get(line); ok {
					if ready > now {
						res.Stall += ready - now
						m.st.LatePrefetches++
					}
					nd.pfReady.del(line)
				}
			}
			continue
		}
		kind := classify(nd.l1.seen, line)
		m.st.L1Misses.Add(cat, kind)
		m.st.L1ReadMisses++
		var lat int64
		if nd.l2.lookup(g) != stInvalid {
			lat = m.l1FillLat
		} else {
			m.st.L2Misses.Add(cat, classify(nd.l2.seen, g))
			m.st.L2ReadMisses++
			lat = m.fetchLine(n, g, now, false)
			m.insertL2(n, g, stShared)
		}
		nd.l1.fill(line)
		res.Stall += lat
		if m.cfg.PrefetchData && cat == simm.CatData {
			m.prefetch(n, line, now)
		}
	}
	return res
}

// Write simulates a processor store. Stores retire through the coalescing
// write buffer; the processor stalls only when the buffer overflows. The
// coherence action for each drained store is applied when the store is
// buffered (a small timing approximation documented in DESIGN.md).
func (m *Machine) Write(n int, a simm.Addr, size int, now int64) AccessResult {
	return m.WriteCat(n, a, size, now, m.mem.CategoryOf(a))
}

// WriteCat is Write with the first byte's category precomputed, the
// store-side twin of ReadCat.
func (m *Machine) WriteCat(n int, a simm.Addr, size int, now int64, cat simm.Category) AccessResult {
	nd := m.nodes[n]
	res := AccessResult{Cat: cat}
	m.st.Writes++
	g := nd.l2.lineOf(uint64(a))
	if m.wbPending(n, g, now) {
		// Coalesced with an earlier buffered store to the same line.
		return res
	}
	drain := m.exclusiveLatency(n, g, now)
	start := now
	if k := len(nd.wb); k > 0 && nd.wb[k-1].done > start {
		start = nd.wb[k-1].done
	}
	nd.wb = append(nd.wb, wbEntry{line: g, done: start + drain, cat: cat})
	if over := len(nd.wb) - m.cfg.WriteBufEntries; over > 0 {
		// Stall until enough leading entries drain to free a slot.
		blocker := nd.wb[over-1]
		res.Stall = blocker.done - now
		res.Cat = blocker.cat
		m.st.WBOverflows++
	}
	return res
}

// exclusiveLatency obtains ownership of the line for node n and returns
// the latency of doing so.
func (m *Machine) exclusiveLatency(n int, g uint64, now int64) int64 {
	nd := m.nodes[n]
	switch nd.l2.lookup(g) {
	case stModified:
		return m.l1FillLat
	case stShared:
		// Upgrade: invalidate the other sharers (directory round trip,
		// or a bus invalidation broadcast).
		var queue, lat int64
		if m.cfg.SnoopingBus {
			queue = m.busQueue(now)
			lat = m.cfg.BusLat
		} else {
			home := m.mem.HomeOf(simm.Addr(g))
			queue = m.dirQueue(home, now)
			if home == n {
				lat = m.cfg.LocalMem
			} else {
				lat = m.cfg.Remote2Hop
			}
		}
		e := m.dir.entry(g)
		m.invalidateOthers(n, g, e)
		e.sharers = 1 << uint(n)
		e.owner = int8(n)
		e.modified = true
		nd.l2.setState(g, stModified)
		return queue + lat
	default:
		m.st.WriteMisses++
		lat := m.fetchLine(n, g, now, true)
		m.insertL2(n, g, stModified)
		return lat
	}
}

// Sync simulates an atomic read-modify-write (test-and-set or a
// releasing store). It bypasses the write buffer and stalls the
// processor for the full ownership round trip; spinning on a locally
// Modified line costs only a secondary-cache hit, which is what makes
// test-and-test-and-set spinlocks viable.
func (m *Machine) Sync(n int, a simm.Addr, now int64) AccessResult {
	nd := m.nodes[n]
	cat := m.mem.CategoryOf(a)
	m.st.Syncs++
	g := nd.l2.lineOf(uint64(a))
	line := nd.l1.lineOf(uint64(a))
	if nd.l2.lookup(g) == stInvalid {
		// Count the read component of the RMW as a read miss so lock
		// words show up in the Figure 7 tables.
		kind := classify(nd.l1.seen, line)
		m.st.L1Misses.Add(cat, kind)
		m.st.L1ReadMisses++
		m.st.Reads++
		m.st.ReadsByCat[cat]++
		m.st.L2Misses.Add(cat, classify(nd.l2.seen, g))
		m.st.L2ReadMisses++
	}
	stall := m.exclusiveLatency(n, g, now)
	nd.l1.fill(line)
	return AccessResult{Stall: stall, Cat: cat}
}

// prefetch implements Section 6: for an access to database data, fetch
// the next PrefetchDegree primary-cache lines into the primary cache.
// The fetch latency is hidden from the processor, but the fills evict
// primary-cache victims (disrupting private data) and the line fetches
// occupy home directories (contention) — the two overheads the paper
// observes.
func (m *Machine) prefetch(n int, l1line uint64, now int64) {
	nd := m.nodes[n]
	for i := 1; i <= m.cfg.PrefetchDegree; i++ {
		pa := l1line + uint64(i)*nd.l1.lineSize
		if m.mem.FindRegion(simm.Addr(pa)) == nil {
			return
		}
		if m.mem.CategoryOf(simm.Addr(pa)) != simm.CatData {
			return
		}
		if nd.l1.lookup(pa) {
			continue
		}
		m.st.Prefetches++
		g := nd.l2.lineOf(pa)
		lat := m.cfg.L2HitLat
		if nd.l2.lookup(g) == stInvalid {
			lat = m.fetchLine(n, g, now, false)
			m.insertL2(n, g, stShared)
		}
		nd.l1.fill(pa)
		nd.pfReady.set(pa, now+lat)
		nd.pfQueue = append(nd.pfQueue, pfEntry{line: pa, ready: now + lat})
	}
}

// Stats holds the machine's counters. Misses are classified at both
// cache levels by data structure and kind, reproducing Figure 7.
type Stats struct {
	L1Misses stats.MissCounts
	L2Misses stats.MissCounts

	Reads        uint64
	ReadsByCat   [simm.NumCategories]uint64
	L1ReadMisses uint64
	L2ReadMisses uint64

	Writes      uint64
	WriteMisses uint64
	WBOverflows uint64
	Syncs       uint64

	Invalidations  uint64
	Prefetches     uint64
	LatePrefetches uint64
}

// L1MissRate returns the primary-cache read miss rate.
func (s *Stats) L1MissRate() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.L1ReadMisses) / float64(s.Reads)
}

// L2MissRate returns the global secondary-cache read miss rate
// (secondary misses over all processor reads), matching how the paper
// reports "global miss rates" of 0.5-0.8%.
func (s *Stats) L2MissRate() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.L2ReadMisses) / float64(s.Reads)
}
