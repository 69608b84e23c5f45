package machine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/simm"
	"repro/internal/stats"
)

// This file cross-validates the optimized machine model against an
// independently written reference implementation of the same
// specification: direct-mapped L1 inclusive in a 2-way LRU L2, MSI
// full-bit-vector directory, cold/conflict/coherence classification.
// Both models replay the same pseudo-random multiprocessor access
// script; their per-category, per-kind miss tables and invalidation
// counts must agree exactly. Accesses are spaced far apart in simulated
// time so write-buffer timing (tested separately) never intrudes.

type refLine struct {
	line uint64
	when int // LRU tick
}

type refCache struct {
	lineSize uint64
	sets     uint64
	ways     int
	content  map[uint64][]refLine // set -> resident lines (<= ways)
	state    map[uint64]uint8     // line -> MSI (L2 only)
	seen     map[uint64]uint8     // line -> cold(0)/replaced(1)/invalidated(2)/present(3)
	tick     int
}

func newRefCache(bytes, line, ways int) *refCache {
	return &refCache{
		lineSize: uint64(line),
		sets:     uint64(bytes / (line * ways)),
		ways:     ways,
		content:  make(map[uint64][]refLine),
		state:    make(map[uint64]uint8),
		seen:     make(map[uint64]uint8),
	}
}

func (c *refCache) set(line uint64) uint64 { return (line / c.lineSize) % c.sets }

func (c *refCache) has(line uint64) bool {
	for _, l := range c.content[c.set(line)] {
		if l.line == line {
			return true
		}
	}
	return false
}

func (c *refCache) touch(line uint64) {
	c.tick++
	s := c.set(line)
	for i := range c.content[s] {
		if c.content[s][i].line == line {
			c.content[s][i].when = c.tick
		}
	}
}

func (c *refCache) classify(line uint64) stats.MissKind {
	switch c.seen[line] {
	case 1:
		return stats.Conf
	case 2:
		return stats.Cohe
	default:
		return stats.Cold
	}
}

// insert returns the evicted victim line, ok false if a way was free.
func (c *refCache) insert(line uint64) (victim uint64, ok bool) {
	c.tick++
	s := c.set(line)
	rows := c.content[s]
	if len(rows) < c.ways {
		c.content[s] = append(rows, refLine{line, c.tick})
		c.seen[line] = 3
		return 0, false
	}
	// Evict the least recently used way.
	lru := 0
	for i := 1; i < len(rows); i++ {
		if rows[i].when < rows[lru].when {
			lru = i
		}
	}
	victim = rows[lru].line
	rows[lru] = refLine{line, c.tick}
	c.content[s] = rows
	c.seen[victim] = 1 // replaced
	c.seen[line] = 3
	return victim, true
}

func (c *refCache) drop(line uint64, reason uint8) bool {
	s := c.set(line)
	rows := c.content[s]
	for i, l := range rows {
		if l.line == line {
			c.content[s] = append(rows[:i], rows[i+1:]...)
			c.seen[line] = reason
			return true
		}
	}
	return false
}

type refDir struct {
	sharers map[uint64]map[int]bool
	owner   map[uint64]int // modified owner; -1 when clean
}

type refMachine struct {
	cfg Config
	mem *simm.Memory
	l1  []*refCache
	l2  []*refCache
	dir refDir
	l1m stats.MissCounts
	l2m stats.MissCounts
	inv uint64
}

func newRefMachine(cfg Config, mem *simm.Memory) *refMachine {
	r := &refMachine{
		cfg: cfg, mem: mem,
		dir: refDir{sharers: map[uint64]map[int]bool{}, owner: map[uint64]int{}},
	}
	for i := 0; i < cfg.Nodes; i++ {
		r.l1 = append(r.l1, newRefCache(cfg.L1Bytes, cfg.L1Line, 1))
		r.l2 = append(r.l2, newRefCache(cfg.L2Bytes, cfg.L2Line, cfg.L2Ways))
	}
	return r
}

func (r *refMachine) sharerSet(g uint64) map[int]bool {
	s := r.dir.sharers[g]
	if s == nil {
		s = map[int]bool{}
		r.dir.sharers[g] = s
		r.dir.owner[g] = -1
	}
	return s
}

// invalidateL1Range drops every L1 line of node n overlapping the L2 line.
func (r *refMachine) invalidateL1Range(n int, g uint64, reason uint8) {
	for a := g; a < g+uint64(r.cfg.L2Line); a += uint64(r.cfg.L1Line) {
		r.l1[n].drop(a, reason)
	}
}

func (r *refMachine) invalidateOthers(n int, g uint64) {
	sh := r.sharerSet(g)
	for q := range sh {
		if q == n {
			continue
		}
		if r.l2[q].drop(g, 2) {
		}
		r.invalidateL1Range(q, g, 2)
		delete(sh, q)
		r.inv++
	}
}

// fetchShared brings g into node n's L2 in shared state.
func (r *refMachine) fetchShared(n int, g uint64) {
	if owner := r.dir.owner[g]; owner >= 0 && owner != n && r.sharerSet(g)[owner] {
		r.l2[owner].state[g] = stShared
		r.dir.owner[g] = -1
	}
	r.sharerSet(g)[n] = true
	r.insertL2(n, g, stShared)
}

func (r *refMachine) insertL2(n int, g uint64, st uint8) {
	victim, ok := r.l2[n].insert(g)
	r.l2[n].state[g] = st
	if ok {
		if r.dir.owner[victim] == n {
			r.dir.owner[victim] = -1
		}
		delete(r.sharerSet(victim), n)
		delete(r.l2[n].state, victim)
		r.invalidateL1Range(n, victim, 1)
	}
}

func (r *refMachine) exclusive(n int, g uint64) {
	st := r.l2[n].state[g]
	if r.l2[n].has(g) && st == stModified {
		r.l2[n].touch(g)
		return
	}
	r.invalidateOthers(n, g)
	if r.l2[n].has(g) {
		r.l2[n].state[g] = stModified
		r.l2[n].touch(g)
	} else {
		r.insertL2(n, g, stModified)
	}
	sh := r.sharerSet(g)
	for q := range sh {
		delete(sh, q)
	}
	sh[n] = true
	r.dir.owner[g] = n
}

func (r *refMachine) read(n int, a simm.Addr, size int) {
	addr, end := uint64(a), uint64(a)+uint64(size)
	for line := addr &^ (uint64(r.cfg.L1Line) - 1); line < end; line += uint64(r.cfg.L1Line) {
		// A reference is attributed by the first byte it reads in each
		// line: a line longer than a page can span categories.
		cat := r.mem.CategoryOf(simm.Addr(max(addr, line)))
		g := line &^ (uint64(r.cfg.L2Line) - 1)
		if r.l1[n].has(line) {
			r.l1[n].touch(line)
			continue
		}
		r.l1m.Add(cat, r.l1[n].classify(line))
		if r.l2[n].has(g) {
			r.l2[n].touch(g)
		} else {
			r.l2m.Add(cat, r.l2[n].classify(g))
			r.fetchShared(n, g)
		}
		r.l1[n].insert(line)
	}
}

func (r *refMachine) write(n int, a simm.Addr) {
	g := uint64(a) &^ (uint64(r.cfg.L2Line) - 1)
	r.exclusive(n, g)
}

func (r *refMachine) sync(n int, a simm.Addr) {
	cat := r.mem.CategoryOf(a)
	g := uint64(a) &^ (uint64(r.cfg.L2Line) - 1)
	line := uint64(a) &^ (uint64(r.cfg.L1Line) - 1)
	if !r.l2[n].has(g) || r.l2[n].state[g] == stInvalid {
		r.l1m.Add(cat, r.l1[n].classify(line))
		r.l2m.Add(cat, r.l2[n].classify(g))
	}
	r.exclusive(n, g)
	r.l1[n].insert(line)
}

// refScript replays steps pseudo-random accesses drawn from seed through
// m and ref, both cold, and fails t where their miss tables or
// invalidation counts differ.
func refScript(t *testing.T, m *Machine, ref *refMachine, regions []*simm.Region, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nodes := m.cfg.Nodes
	now := int64(0)
	for i := 0; i < steps; i++ {
		n := rng.Intn(nodes)
		reg := regions[rng.Intn(len(regions))]
		// Skewed offsets create sharing and conflicts.
		var off uint64
		if rng.Intn(3) == 0 {
			off = uint64(rng.Intn(512)) * 8 // hot area: heavy sharing
		} else {
			off = uint64(rng.Intn(int(reg.Size)/8-1)) * 8
		}
		a := reg.Base + simm.Addr(off)
		// Large gaps keep the write buffer drained so timing
		// never changes behavior.
		now += 100000
		switch rng.Intn(10) {
		case 0:
			m.Sync(n, a, now)
			ref.sync(n, a)
		case 1, 2:
			m.Write(n, a, 8, now)
			ref.write(n, a)
		default:
			m.Read(n, a, 8, now)
			ref.read(n, a, 8)
		}
	}

	st := m.Stats()
	if st.L1Misses != ref.l1m {
		t.Errorf("L1 miss tables diverge:\n got %v\n ref %v", st.L1Misses, ref.l1m)
	}
	if st.L2Misses != ref.l2m {
		t.Errorf("L2 miss tables diverge:\n got %v\n ref %v", st.L2Misses, ref.l2m)
	}
	if st.Invalidations != ref.inv {
		t.Errorf("invalidations: got %d, ref %d", st.Invalidations, ref.inv)
	}
}

// madeLeaves counts the secondary-cache leaves of m's nodes that were
// made, out of all of them.
func madeLeaves(m *Machine) (made, all int) {
	for _, nd := range m.nodes {
		for _, lf := range nd.l2.leaves {
			if lf != nil {
				made++
			}
		}
		all += len(nd.l2.leaves)
	}
	return made, all
}

// TestAgainstReferenceModel replays a long random script through both
// implementations and compares the complete miss tables. Besides the
// paper's geometries it covers a set count that is not a power of two
// (192 KB, 2-way: the division path of setIndex), an 8-MB secondary
// cache the script's 1.3 MB of regions leave mostly without leaves, and
// a machine that runs the script again after Flush and once more after
// NewReusing hands its secondary caches to a machine of the same L2
// geometry, each time against a fresh reference model.
func TestAgainstReferenceModel(t *testing.T) {
	for _, geom := range []struct {
		name         string
		l1, l1l      int
		l2, l2l, wys int
		reuse        bool
	}{
		{"baseline", 4 << 10, 32, 128 << 10, 64, 2, false},
		{"short-lines", 4 << 10, 8, 128 << 10, 16, 2, false},
		{"long-lines", 4 << 10, 128, 128 << 10, 256, 2, false},
		{"big-4way", 32 << 10, 32, 1 << 20, 64, 4, false},
		{"sets-not-power-of-two", 4 << 10, 32, 192 << 10, 64, 2, false},
		{"sparse-8mb", 4 << 10, 32, 8 << 20, 64, 2, false},
		{"flush-and-reuse", 4 << 10, 32, 128 << 10, 64, 2, true},
		{"page-long-l2-lines", 4 << 10, 4 << 10, 256 << 10, 8 << 10, 2, false},
		{"page-long-l1-lines", 16 << 10, 8 << 10, 256 << 10, 16 << 10, 2, false},
	} {
		t.Run(geom.name, func(t *testing.T) {
			// The write buffer drains between accesses here, so its depth
			// must not show: both depths face the same reference tables.
			for _, wb := range []int{1, 16} {
				t.Run(fmt.Sprintf("wb%d", wb), func(t *testing.T) {
					cfg := Baseline()
					cfg.L1Bytes, cfg.L1Line = geom.l1, geom.l1l
					cfg.L2Bytes, cfg.L2Line, cfg.L2Ways = geom.l2, geom.l2l, geom.wys
					cfg.WriteBufEntries = wb
					mem := simm.New(cfg.Nodes)
					regions := []*simm.Region{
						mem.AllocRegion("data", 1<<20, simm.CatData, simm.AnyNode),
						mem.AllocRegion("meta", 64<<10, simm.CatLockHash, simm.AnyNode),
						mem.AllocRegion("priv", 256<<10, simm.CatPriv, 0),
					}
					m, err := New(cfg, mem)
					if err != nil {
						t.Fatal(err)
					}
					if !geom.reuse {
						refScript(t, m, newRefMachine(cfg, mem), regions, 99, 60000)
						if geom.l2 == 8<<20 {
							if made, all := madeLeaves(m); made*2 > all {
								t.Errorf("%d of %d L2 leaves made; want at most half", made, all)
							}
						}
						return
					}

					refScript(t, m, newRefMachine(cfg, mem), regions, 99, 20000)
					leaves := make([][]*l2Leaf, len(m.nodes))
					for i, nd := range m.nodes {
						leaves[i] = slices.Clone(nd.l2.leaves)
					}
					m.Flush()
					m.ResetStats()
					refScript(t, m, newRefMachine(cfg, mem), regions, 99, 20000)

					// Another L1 size, the same L2 geometry: the new machine
					// takes the donor's secondary caches and re-runs the same
					// script over the same leaves.
					cfg2 := cfg
					cfg2.L1Bytes *= 2
					m2, err := NewReusing(cfg2, mem, m)
					if err != nil {
						t.Fatal(err)
					}
					refScript(t, m2, newRefMachine(cfg2, mem), regions, 99, 20000)
					for i, nd := range m2.nodes {
						if !slices.Equal(nd.l2.leaves, leaves[i]) {
							t.Errorf("node %d: the reused L2 holds other leaves than the donor's first run made", i)
						}
					}
				})
			}
		})
	}
}
