package machine

import "math/bits"

// Tables keyed by cache-line address, replacing the built-in maps that
// used to sit on the per-reference hot path. The per-cache `seen`
// history and the directory are two-level chunked arrays indexed by
// line number over the dense simulated address space. The
// outstanding-prefetch set is an open-addressed hash table: line
// address 0 is never valid — the address space keeps its first page
// unmapped — so 0 doubles as its empty-slot marker and no tombstones or
// occupancy bitmaps are needed; it uses power-of-two capacities with
// linear probing and grows at ~75% load. Lookups and inserts on a warm
// table allocate nothing.

// lineHash spreads line addresses (which share low zero bits and long
// runs of near-sequential values) across the table via a Fibonacci
// multiply. The caller masks the result to the table size.
func lineHash(line uint64) uint64 {
	return line * 0x9E3779B97F4A7C15
}

const tableInitSize = 1024 // slots; must be a power of two

// seenChunkBits sizes the leaves of seenTab: 1<<16 lines per chunk, at
// seenBits bits per line (a 16-KB byte array).
const seenChunkBits = 16

// seenBits is the history width: a line is never seen (0),
// absentReplaced, absentInvalidated or present — four states, two bits,
// four lines per byte.
const (
	seenBits = 2
	seenMask = 1<<seenBits - 1
)

// seenTab maps line -> 2-bit history with 0-valued absence: a get on a
// missing key returns 0, which the miss classifier reads as "never
// seen" (cold). It backs the per-cache seen history. Because the
// simulated address space is a dense linear span and a running query
// touches most lines of the regions it visits, the history is stored as
// a two-level chunked array indexed by line number — two dependent
// loads, no hashing, no probe chains, no rehash pauses — materializing
// 16-KB leaf chunks only for address ranges actually referenced.
type seenTab struct {
	lineShift uint
	chunks    [][]uint8
}

func newSeenTab(lineSize uint64) *seenTab {
	return &seenTab{lineShift: uint(bits.TrailingZeros64(lineSize))}
}

// seenSlot splits a line index into its leaf's byte offset and the bit
// shift of its history within that byte.
func seenSlot(idx uint64) (byteOff uint64, shift uint) {
	off := idx & (1<<seenChunkBits - 1)
	return off / (8 / seenBits), uint(off%(8/seenBits)) * seenBits
}

func (t *seenTab) get(line uint64) uint8 {
	idx := line >> t.lineShift
	ci := idx >> seenChunkBits
	if ci >= uint64(len(t.chunks)) || t.chunks[ci] == nil {
		return 0
	}
	b, sh := seenSlot(idx)
	return t.chunks[ci][b] >> sh & seenMask
}

func (t *seenTab) set(line uint64, v uint8) {
	idx := line >> t.lineShift
	ci := idx >> seenChunkBits
	for ci >= uint64(len(t.chunks)) {
		t.chunks = append(t.chunks, nil)
	}
	c := t.chunks[ci]
	if c == nil {
		c = make([]uint8, (1<<seenChunkBits)*seenBits/8)
		t.chunks[ci] = c
	}
	b, sh := seenSlot(idx)
	c[b] = c[b]&^(seenMask<<sh) | v<<sh
}

func (t *seenTab) reset() {
	// Forget all history but keep the leaves: a zeroed chunk reads
	// exactly as an absent one, and the next run over the same address
	// ranges would only allocate them again.
	for _, c := range t.chunks {
		clear(c)
	}
}

// dirChunkBits sizes the leaves of dirTab: 1<<14 entries (64 KB of
// 4-byte dirEntry) per chunk.
const dirChunkBits = 14

// dirTab maps line -> dirEntry with seenTab's shape: a two-level array
// indexed by line number, its leaves materialized on first touch. A
// zero entry is an uncached line, so absence needs no marker. entry()
// returns a pointer into a leaf; leaves never move, so the pointer stays
// valid across later calls.
type dirTab struct {
	lineShift uint
	chunks    [][]dirEntry
}

func newDirTab(lineSize uint64) *dirTab {
	return &dirTab{lineShift: uint(bits.TrailingZeros64(lineSize))}
}

func (t *dirTab) entry(line uint64) *dirEntry {
	idx := line >> t.lineShift
	ci := idx >> dirChunkBits
	for ci >= uint64(len(t.chunks)) {
		t.chunks = append(t.chunks, nil)
	}
	c := t.chunks[ci]
	if c == nil {
		c = make([]dirEntry, 1<<dirChunkBits)
		t.chunks[ci] = c
	}
	return &c[idx&(1<<dirChunkBits-1)]
}

// reset forgets every entry and re-keys the table for lines of lineSize
// bytes. It keeps the leaves for the next run only when the line size is
// unchanged. A leaf holds 1<<dirChunkBits lines, so one address range
// takes sixteen 16-byte-line leaves for each 256-byte-line one: leaves
// kept from a finer line size would mostly sit unused, so a new line
// size drops them and makes its own on first touch.
func (t *dirTab) reset(lineSize uint64) {
	shift := uint(bits.TrailingZeros64(lineSize))
	if shift != t.lineShift {
		t.chunks = nil
		t.lineShift = shift
		return
	}
	for _, c := range t.chunks {
		clear(c)
	}
}

// timeTab maps line -> int64 with true deletion (backward-shift, so no
// tombstones accumulate). It backs the outstanding-prefetch set, which
// is usually empty: callers gate on len() before probing.
type timeTab struct {
	keys []uint64
	vals []int64
	used int
	mask uint64
}

func newTimeTab() *timeTab {
	return &timeTab{
		keys: make([]uint64, tableInitSize),
		vals: make([]int64, tableInitSize),
		mask: tableInitSize - 1,
	}
}

func (t *timeTab) len() int { return t.used }

func (t *timeTab) get(line uint64) (int64, bool) {
	i := lineHash(line) & t.mask
	for {
		switch t.keys[i] {
		case line:
			return t.vals[i], true
		case 0:
			return 0, false
		}
		i = (i + 1) & t.mask
	}
}

func (t *timeTab) set(line uint64, v int64) {
	i := lineHash(line) & t.mask
	for t.keys[i] != 0 && t.keys[i] != line {
		i = (i + 1) & t.mask
	}
	if t.keys[i] == 0 {
		t.keys[i] = line
		t.used++
		if uint64(t.used)*4 > (t.mask+1)*3 {
			t.vals[i] = v
			t.grow()
			return
		}
	}
	t.vals[i] = v
}

// del removes line if present, backward-shifting the probe chain to
// keep lookups correct without tombstones.
func (t *timeTab) del(line uint64) {
	i := lineHash(line) & t.mask
	for {
		switch t.keys[i] {
		case 0:
			return
		case line:
		default:
			i = (i + 1) & t.mask
			continue
		}
		break
	}
	t.used--
	// Backward-shift: walk the cluster after the hole; any entry whose
	// ideal slot is outside (hole, current] moves into the hole.
	j := i
	for {
		j = (j + 1) & t.mask
		if t.keys[j] == 0 {
			break
		}
		h := lineHash(t.keys[j]) & t.mask
		// Move keys[j] into the hole unless its ideal position h lies
		// strictly inside the gap (i, j] in circular order.
		if (j > i && (h <= i || h > j)) || (j < i && (h <= i && h > j)) {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			i = j
		}
	}
	t.keys[i] = 0
	t.vals[i] = 0
}

func (t *timeTab) grow() {
	oldK, oldV := t.keys, t.vals
	n := (t.mask + 1) * 2
	t.keys = make([]uint64, n)
	t.vals = make([]int64, n)
	t.mask = n - 1
	for i, k := range oldK {
		if k == 0 {
			continue
		}
		j := lineHash(k) & t.mask
		for t.keys[j] != 0 {
			j = (j + 1) & t.mask
		}
		t.keys[j] = k
		t.vals[j] = oldV[i]
	}
}

func (t *timeTab) reset() {
	for i := range t.keys {
		t.keys[i] = 0
		t.vals[i] = 0
	}
	t.used = 0
}
