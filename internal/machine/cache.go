package machine

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/stats"
)

// Absence reasons recorded per line per cache, used to classify the next
// miss on that line (cold if never recorded, conflict if replaced,
// coherence if invalidated by another processor's write).
const (
	absentReplaced    = uint8(1)
	absentInvalidated = uint8(2)
	present           = uint8(3)
)

func classify(seen *seenTab, line uint64) stats.MissKind {
	switch seen.get(line) {
	case absentReplaced:
		return stats.Conf
	case absentInvalidated:
		return stats.Cohe
	default:
		return stats.Cold
	}
}

// setIndex computes (line>>lineShift) % sets, using the mask when the
// set count is a power of two (every standard geometry) and division
// otherwise.
func setIndex(line uint64, lineShift uint, sets, setMask uint64) uint64 {
	s := line >> lineShift
	if setMask != 0 {
		return s & setMask
	}
	return s % sets
}

// l1Cache is a direct-mapped primary cache. It holds no coherence state
// of its own: it is kept inclusive in the node's secondary cache, which
// is where the directory protocol acts.
type l1Cache struct {
	lineSize  uint64
	lineShift uint
	sets      uint64
	setMask   uint64   // sets-1 when sets is a power of two, else 0
	lines     []uint64 // line address per set; l1Free = invalid
	seen      *seenTab
}

// l1Free marks an empty primary-cache set. No line address equals it,
// line 0 included, which holds mapped data once a line is longer than a
// simm page.
const l1Free = ^uint64(0)

func newL1(bytes, line int) *l1Cache {
	sets := uint64(bytes / line)
	c := &l1Cache{
		lineSize:  uint64(line),
		lineShift: uint(bits.TrailingZeros64(uint64(line))),
		sets:      sets,
		lines:     make([]uint64, sets),
		seen:      newSeenTab(uint64(line)),
	}
	if sets&(sets-1) == 0 {
		c.setMask = sets - 1
	}
	c.flush()
	return c
}

func (c *l1Cache) lineOf(a uint64) uint64 { return a &^ (c.lineSize - 1) }
func (c *l1Cache) setOf(line uint64) uint64 {
	return setIndex(line, c.lineShift, c.sets, c.setMask)
}

func (c *l1Cache) lookup(a uint64) bool {
	line := c.lineOf(a)
	return c.lines[c.setOf(line)] == line
}

// fill inserts the line holding a, evicting the direct-mapped victim.
func (c *l1Cache) fill(a uint64) {
	line := c.lineOf(a)
	s := c.setOf(line)
	v := c.lines[s]
	if v != l1Free && v != line {
		c.seen.set(v, absentReplaced)
	}
	c.lines[s] = line
	c.seen.set(line, present)
}

// invalidateRange drops any line overlapping [a, a+n) for the given
// reason (coherence invalidation or inclusion-forced replacement).
func (c *l1Cache) invalidateRange(a, n uint64, reason uint8) {
	for line := c.lineOf(a); line < a+n; line += c.lineSize {
		s := c.setOf(line)
		if c.lines[s] == line {
			c.lines[s] = l1Free
			c.seen.set(line, reason)
		}
	}
}

func (c *l1Cache) flush() {
	for i := range c.lines {
		c.lines[i] = l1Free
	}
	c.seen.reset()
}

// MSI states of a secondary-cache line.
const (
	stInvalid  = uint8(0)
	stShared   = uint8(1)
	stModified = uint8(2)
)

// l2LeafBits sizes the leaves of l2Cache: 1<<8 sets per leaf (fewer in
// a cache with fewer sets in all), so a 2-way leaf is 3 KB.
const l2LeafBits = 8

// l2Cache is the set-associative secondary cache; its lines carry the
// MSI coherence state. Its sets live in fixed-size leaves made on first
// fill, like the leaves of seenTab and dirTab: a probe of a set whose
// leaf was never made is a miss, and until then the set costs only its
// share of one leaf pointer. The warm-cache experiments' 32-MB and the
// cache sweep's 8-MB secondary caches are thereby sized by the sets a
// run touches, not by the sets it configures.
//
// A made leaf holds 6 bytes per line. The tag is the set-relative part
// of the line number, (line >> lineShift) / sets, plus one, in 32 bits:
// the set index holds the rest, so a line comes back exactly from its
// set and tag. The plus one keeps every line's tag nonzero, line 0's
// too (mapped data shares it once a line is longer than a simm page),
// so a zero tag is a free way: invalidation zeroes it, and no state
// needs reading to tell a free way from a resident one. 32 bits tag
// every address below Config.TagReach, 2^32-1 times the bytes of one
// way (32 GB at the smallest geometry, 128 GB at 32-byte ways); fill
// panics on a line past it rather than store an aliased tag.
//
// Recency is a per-set rank permutation (one byte per way) rather than a
// global timestamp array: rank 0 is the LRU way, ways-1 the MRU. This is
// exactly equivalent to timestamp LRU with first-lowest-index
// tie-breaking — the victim scan only runs when every way is valid (free
// ways are claimed by the free-slot scan first), and among filled ways
// ranks order exactly as unique timestamps would.
type l2Cache struct {
	lineSize  uint64
	lineShift uint
	sets      uint64
	setMask   uint64 // sets-1 when sets is a power of two, else 0
	setShift  uint   // log2(sets) when sets is a power of two
	ways      int
	leaves    []*l2Leaf // set s lives in leaves[s>>l2LeafBits]; nil until its first fill
	seen      *seenTab
}

// l2Leaf holds 1<<l2LeafBits consecutive sets, ways entries each.
type l2Leaf struct {
	tags  []uint32 // set-relative line number plus one; 0 = free
	state []uint8  // MSI state of a resident line
	order []uint8  // recency rank within the set: 0 = LRU, ways-1 = MRU
}

func newL2(bytes, line, ways int) *l2Cache {
	sets := uint64(bytes / (line * ways))
	c := &l2Cache{
		lineSize:  uint64(line),
		lineShift: uint(bits.TrailingZeros64(uint64(line))),
		sets:      sets,
		ways:      ways,
		leaves:    make([]*l2Leaf, (sets+1<<l2LeafBits-1)>>l2LeafBits),
		seen:      newSeenTab(uint64(line)),
	}
	if sets&(sets-1) == 0 {
		c.setMask = sets - 1
		c.setShift = uint(bits.TrailingZeros64(sets))
	}
	return c
}

// makeLeaf makes leaf li, every set of it in the flush state.
func (c *l2Cache) makeLeaf(li uint64) *l2Leaf {
	sets := min(c.sets-li<<l2LeafBits, 1<<l2LeafBits)
	n := int(sets) * c.ways
	meta := make([]uint8, 2*n)
	lf := &l2Leaf{tags: make([]uint32, n), state: meta[:n:n], order: meta[n:]}
	lf.resetOrder(c.ways)
	c.leaves[li] = lf
	return lf
}

// resetOrder restores the identity ranking in every set, the flush
// state: untouched ways are evicted lowest-index-first, matching the
// timestamp scan's tie-break over all-zero timestamps.
func (lf *l2Leaf) resetOrder(ways int) {
	for i := range lf.order {
		lf.order[i] = uint8(i % ways)
	}
}

// touch marks way i most recently used within its set (base is the
// set's first way): ranks above its old rank slide down one,
// preserving their relative order.
func (lf *l2Leaf) touch(base, i, ways int) {
	r := lf.order[i]
	if int(r) == ways-1 {
		return // already MRU; ranks are unchanged
	}
	for w := base; w < base+ways; w++ {
		if lf.order[w] > r {
			lf.order[w]--
		}
	}
	lf.order[i] = uint8(ways - 1)
}

func (c *l2Cache) lineOf(a uint64) uint64 { return a &^ (c.lineSize - 1) }

// set returns the index of line's set and line's tag. The tag is
// returned in 64 bits: one past 32 bits matches no stored tag, and fill
// refuses to store it.
func (c *l2Cache) set(line uint64) (s, tag uint64) {
	n := line >> c.lineShift
	if c.setMask != 0 {
		return n & c.setMask, n>>c.setShift + 1
	}
	return n % c.sets, n/c.sets + 1
}

// tagReach is the first address that a secondary cache whose ways hold
// the given bytes cannot tag: a line's tag, its set-relative line number
// plus one, passes 32 bits there.
func tagReach(wayBytes uint64) uint64 {
	if wayBytes > math.MaxUint64/math.MaxUint32 {
		return math.MaxUint64
	}
	return wayBytes * math.MaxUint32
}

// lineAt is the line held in set s under the given tag, the inverse of
// set.
func (c *l2Cache) lineAt(s uint64, tag uint32) uint64 {
	return ((uint64(tag)-1)*c.sets + s) << c.lineShift
}

// find returns the line's leaf, the index of its set's first way in the
// leaf and its own way, or a nil leaf when the line is not resident.
func (c *l2Cache) find(line uint64) (lf *l2Leaf, base, i int) {
	s, tag := c.set(line)
	if lf = c.leaves[s>>l2LeafBits]; lf != nil {
		base = int(s&(1<<l2LeafBits-1)) * c.ways
		for i = base; i < base+c.ways; i++ {
			if uint64(lf.tags[i]) == tag {
				return lf, base, i
			}
		}
	}
	return nil, 0, -1
}

// lookup probes for the line and refreshes LRU on a hit, returning the
// line's state (stInvalid on miss).
func (c *l2Cache) lookup(line uint64) uint8 {
	lf, base, i := c.find(line)
	if lf == nil {
		return stInvalid
	}
	lf.touch(base, i, c.ways)
	return lf.state[i]
}

// fill inserts the line in the given state and returns the victim line
// address and state (victimState stInvalid if the slot was free). It
// panics on a line at or past Config.TagReach, whose tag 32 bits cannot
// hold.
func (c *l2Cache) fill(line uint64, st uint8) (victim uint64, victimState uint8) {
	s, tag := c.set(line)
	if tag > math.MaxUint32 {
		panic(fmt.Sprintf("machine: line %#x is past the %#x bytes the secondary cache's 32-bit tags reach",
			line, tagReach(c.sets*c.lineSize)))
	}
	li, base := s>>l2LeafBits, int(s&(1<<l2LeafBits-1))*c.ways
	lf := c.leaves[li]
	if lf == nil {
		lf = c.makeLeaf(li)
	}
	slot := -1
	for w := base; w < base+c.ways; w++ {
		if lf.tags[w] == 0 {
			slot = w
			break
		}
	}
	if slot < 0 {
		for w := base; w < base+c.ways; w++ {
			if lf.order[w] == 0 {
				slot = w
				break
			}
		}
		victim, victimState = c.lineAt(s, lf.tags[slot]), lf.state[slot]
		c.seen.set(victim, absentReplaced)
	}
	lf.tags[slot] = uint32(tag)
	lf.state[slot] = st
	lf.touch(base, slot, c.ways)
	c.seen.set(line, present)
	return victim, victimState
}

// setState changes the state of a resident line.
func (c *l2Cache) setState(line uint64, st uint8) {
	if lf, _, i := c.find(line); lf != nil {
		lf.state[i] = st
	}
}

// invalidate drops the line for a coherence reason.
func (c *l2Cache) invalidate(line uint64) {
	if lf, _, i := c.find(line); lf != nil {
		lf.tags[i] = 0
		c.seen.set(line, absentInvalidated)
	}
}

// flush empties every set. It zeroes the leaves that were made and
// keeps them, so a rerun over the same sets allocates nothing.
func (c *l2Cache) flush() {
	for _, lf := range c.leaves {
		if lf != nil {
			clear(lf.tags)
			clear(lf.state)
			lf.resetOrder(c.ways)
		}
	}
	c.seen.reset()
}
