package simm

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Addr is an address in the simulated 64-bit address space. Address 0 is
// never allocated and serves as a nil sentinel.
type Addr uint64

// PageShift/PageSize define the page granularity used for NUMA home
// assignment and for category tagging overrides (buffer blocks holding
// heap pages vs. index pages get different categories page by page).
const (
	PageShift = 12
	PageSize  = 1 << PageShift
)

// AnyNode marks a region whose pages are interleaved round-robin across
// the nodes of the machine rather than homed on a single node.
const AnyNode = -1

// Region backing is materialized lazily in fixed chunks: fresh simulated
// memory reads as zero, so a chunk is allocated (and zeroed by the
// runtime) only when something is first stored into it. Regions are much
// larger than what a run touches — each processor's private heap is
// 96 MB of mostly-unused arena — and eager backing would spend more time
// zeroing pages at system build than the simulation spends using them.
const (
	regionChunkShift = 16 // 64-KB chunks, a multiple of PageSize
	regionChunkSize  = 1 << regionChunkShift
	regionChunkMask  = regionChunkSize - 1
)

// Region is a named, category-tagged range of the simulated address space.
type Region struct {
	Name string
	Base Addr
	Size uint64
	Cat  Category
	// Node is the home node for every page of the region, or AnyNode
	// for page-interleaved placement.
	Node int

	// chunks[off>>regionChunkShift] backs region offset off; nil chunks
	// are all-zero ranges that no store has touched yet.
	chunks [][]byte
}

// End returns the first address past the region.
func (r *Region) End() Addr { return r.Base + Addr(r.Size) }

// loadSlow assembles a read that crosses a chunk boundary, zero-filling
// ranges whose chunks were never materialized.
func (r *Region) loadSlow(off uint64, dst []byte) {
	for len(dst) > 0 {
		ci, co := off>>regionChunkShift, off&regionChunkMask
		n := regionChunkSize - int(co)
		if n > len(dst) {
			n = len(dst)
		}
		if c := r.chunks[ci]; c != nil {
			copy(dst[:n], c[co:])
		} else {
			for i := 0; i < n; i++ {
				dst[i] = 0
			}
		}
		dst = dst[n:]
		off += uint64(n)
	}
}

// chunk materializes and returns the chunk covering offset off.
func (r *Region) chunk(off uint64) []byte {
	ci := off >> regionChunkShift
	c := r.chunks[ci]
	if c == nil {
		c = make([]byte, regionChunkSize)
		r.chunks[ci] = c
	}
	return c
}

// storeSlow scatters a write that crosses a chunk boundary.
func (r *Region) storeSlow(off uint64, src []byte) {
	for len(src) > 0 {
		co := off & regionChunkMask
		n := regionChunkSize - int(co)
		if n > len(src) {
			n = len(src)
		}
		copy(r.chunk(off)[co:], src[:n])
		src = src[n:]
		off += uint64(n)
	}
}

// Memory is the simulated address space: an ordered set of regions plus
// page-level category overrides. It is not safe for concurrent use; the
// execution engine serializes all simulated processors.
//
// Because regions are carved out linearly from a contiguous span, every
// per-address attribute is a dense page-table slice indexed by
// a>>PageShift: category, home node, and owning region all resolve with
// a shift and a bounds check, never a map probe or binary search. This
// sits on the per-reference hot path of the simulation engine (category
// attribution on every traced load/store), so it must stay allocation-
// and map-free.
type Memory struct {
	nodes   int
	next    Addr
	regions []*Region

	// Per-page tables, indexed by page number. pageRegion holds the
	// index into regions (-1 for unmapped pages, including page 0);
	// pageCat and pageHome are the resolved category and NUMA home of
	// each page, with SetPageCategory overrides applied in place.
	pageRegion []int32
	pageCat    []Category
	pageHome   []int16
}

// New creates an empty address space for a machine with the given number
// of nodes.
func New(nodes int) *Memory {
	if nodes <= 0 {
		panic(fmt.Sprintf("simm: invalid node count %d", nodes))
	}
	return &Memory{
		nodes: nodes,
		next:  PageSize, // keep address 0 (and the first page) unmapped
		// Page 0 is unmapped by construction.
		pageRegion: []int32{-1},
		pageCat:    []Category{0},
		pageHome:   []int16{-1},
	}
}

// Nodes returns the number of nodes the space was created for.
func (m *Memory) Nodes() int { return m.nodes }

// WipeContents zeroes every region's materialized backing chunks in
// place, so all simulated memory reads as zero again — exactly the state
// a fresh NewFromLayout space is in, with the chunks the next replay
// will write (lock tables, spin words) already allocated. Regions, page
// tables, categories, and homes are untouched. The replay-system arena
// resets pooled address spaces this way instead of rebuilding them per
// job.
func (m *Memory) WipeContents() {
	for _, r := range m.regions {
		for _, c := range r.chunks {
			clear(c)
		}
	}
}

// AllocRegion carves a new page-aligned region out of the address space.
// node may be a specific home node or AnyNode for page interleaving.
func (m *Memory) AllocRegion(name string, size uint64, cat Category, node int) *Region {
	if size == 0 {
		panic("simm: zero-sized region " + name)
	}
	if node != AnyNode && (node < 0 || node >= m.nodes) {
		panic(fmt.Sprintf("simm: region %s: invalid node %d", name, node))
	}
	aligned := (size + PageSize - 1) &^ uint64(PageSize-1)
	r := &Region{
		Name:   name,
		Base:   m.next,
		Size:   aligned,
		Cat:    cat,
		Node:   node,
		chunks: make([][]byte, (aligned+regionChunkSize-1)>>regionChunkShift),
	}
	idx := int32(len(m.regions))
	m.next += Addr(aligned)
	m.regions = append(m.regions, r)
	first, end := int(r.Base>>PageShift), int(m.next>>PageShift)
	m.growPages(end - first)
	m.pageRegion = m.pageRegion[:end]
	m.pageCat = m.pageCat[:end]
	m.pageHome = m.pageHome[:end]
	for p := first; p < end; p++ {
		home := node
		if node == AnyNode {
			home = p % m.nodes
		}
		m.pageRegion[p] = idx
		m.pageCat[p] = cat
		m.pageHome[p] = int16(home)
	}
	return r
}

// growPages makes room in each page table for n more pages, growing it
// at most once: by the region AllocRegion is carving out, or by a whole
// layout before NewFromLayout carves out its regions.
func (m *Memory) growPages(n int) {
	m.pageRegion = slices.Grow(m.pageRegion, n)
	m.pageCat = slices.Grow(m.pageCat, n)
	m.pageHome = slices.Grow(m.pageHome, n)
}

// pageOf returns the page-table index of a, or -1 when a is unmapped.
func (m *Memory) pageOf(a Addr) int {
	p := int(a >> PageShift)
	if p >= len(m.pageRegion) {
		return -1
	}
	if m.pageRegion[p] < 0 {
		return -1
	}
	return p
}

// FindRegion returns the region containing a, or nil.
func (m *Memory) FindRegion(a Addr) *Region {
	p := m.pageOf(a)
	if p < 0 {
		return nil
	}
	return m.regions[m.pageRegion[p]]
}

func (m *Memory) regionFor(a Addr, n uint64) *Region {
	r := m.FindRegion(a)
	if r == nil || a+Addr(n) > r.End() {
		panic(fmt.Sprintf("simm: access to unmapped address %#x (+%d)", uint64(a), n))
	}
	return r
}

// regionCat resolves an n-byte access to its region and the category of
// its first byte in a single page-table walk. The traced accessors of
// the execution engine use this so that reading the data and
// attributing the reference don't walk the page table twice.
func (m *Memory) regionCat(a Addr, n uint64) (*Region, Category) {
	p := int(a >> PageShift)
	if p >= len(m.pageRegion) || m.pageRegion[p] < 0 {
		panic(fmt.Sprintf("simm: access to unmapped address %#x (+%d)", uint64(a), n))
	}
	r := m.regions[m.pageRegion[p]]
	if a+Addr(n) > r.End() {
		panic(fmt.Sprintf("simm: access to unmapped address %#x (+%d)", uint64(a), n))
	}
	return r, m.pageCat[p]
}

// CategoryOf returns the data-structure category of the page holding a,
// honoring page-level overrides set by SetPageCategory.
func (m *Memory) CategoryOf(a Addr) Category {
	p := m.pageOf(a)
	if p < 0 {
		panic(fmt.Sprintf("simm: access to unmapped address %#x (+1)", uint64(a)))
	}
	return m.pageCat[p]
}

// SetPageCategory overrides the category of every page overlapping
// [a, a+n). The buffer cache uses this to tag each 8-KB buffer block as
// Data or Index depending on what page it holds.
func (m *Memory) SetPageCategory(a Addr, n uint64, cat Category) {
	for p := a >> PageShift; p <= (a+Addr(n)-1)>>PageShift; p++ {
		if int(p) < len(m.pageCat) {
			m.pageCat[p] = cat
		}
	}
}

// HomeOf returns the NUMA home node of the page holding a.
func (m *Memory) HomeOf(a Addr) int {
	p := m.pageOf(a)
	if p < 0 {
		panic(fmt.Sprintf("simm: access to unmapped address %#x (+1)", uint64(a)))
	}
	return int(m.pageHome[p])
}

// Footprint returns the total allocated bytes per category (page-level
// overrides are not reflected; it reports region-declared sizes).
func (m *Memory) Footprint() [NumCategories]uint64 {
	var f [NumCategories]uint64
	for _, r := range m.regions {
		f[r.Cat] += r.Size
	}
	return f
}

// Load and store primitives. These are the *raw* accessors: they move
// bytes without generating simulation events. The execution engine
// (internal/sched) wraps them with event generation; load-time database
// population uses them directly (the paper collects statistics only for
// the execution stage, with untouched caches).

func (r *Region) load8(off uint64) uint8 {
	if c := r.chunks[off>>regionChunkShift]; c != nil {
		return c[off&regionChunkMask]
	}
	return 0
}

func (r *Region) load16(off uint64) uint16 {
	if co := off & regionChunkMask; co <= regionChunkSize-2 {
		if c := r.chunks[off>>regionChunkShift]; c != nil {
			return binary.LittleEndian.Uint16(c[co:])
		}
		return 0
	}
	var b [2]byte
	r.loadSlow(off, b[:])
	return binary.LittleEndian.Uint16(b[:])
}

func (r *Region) load32(off uint64) uint32 {
	if co := off & regionChunkMask; co <= regionChunkSize-4 {
		if c := r.chunks[off>>regionChunkShift]; c != nil {
			return binary.LittleEndian.Uint32(c[co:])
		}
		return 0
	}
	var b [4]byte
	r.loadSlow(off, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func (r *Region) load64(off uint64) uint64 {
	if co := off & regionChunkMask; co <= regionChunkSize-8 {
		if c := r.chunks[off>>regionChunkShift]; c != nil {
			return binary.LittleEndian.Uint64(c[co:])
		}
		return 0
	}
	var b [8]byte
	r.loadSlow(off, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

func (r *Region) store8(off uint64, v uint8) {
	r.chunk(off)[off&regionChunkMask] = v
}

func (r *Region) store16(off uint64, v uint16) {
	if co := off & regionChunkMask; co <= regionChunkSize-2 {
		binary.LittleEndian.PutUint16(r.chunk(off)[co:], v)
		return
	}
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	r.storeSlow(off, b[:])
}

func (r *Region) store32(off uint64, v uint32) {
	if co := off & regionChunkMask; co <= regionChunkSize-4 {
		binary.LittleEndian.PutUint32(r.chunk(off)[co:], v)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	r.storeSlow(off, b[:])
}

func (r *Region) store64(off uint64, v uint64) {
	if co := off & regionChunkMask; co <= regionChunkSize-8 {
		binary.LittleEndian.PutUint64(r.chunk(off)[co:], v)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	r.storeSlow(off, b[:])
}

// Load8 reads one byte.
func (m *Memory) Load8(a Addr) uint8 {
	r := m.regionFor(a, 1)
	return r.load8(uint64(a - r.Base))
}

// Store8 writes one byte.
func (m *Memory) Store8(a Addr, v uint8) {
	r := m.regionFor(a, 1)
	r.store8(uint64(a-r.Base), v)
}

// Load16 reads a little-endian 16-bit word.
func (m *Memory) Load16(a Addr) uint16 {
	r := m.regionFor(a, 2)
	return r.load16(uint64(a - r.Base))
}

// Store16 writes a little-endian 16-bit word.
func (m *Memory) Store16(a Addr, v uint16) {
	r := m.regionFor(a, 2)
	r.store16(uint64(a-r.Base), v)
}

// Load32 reads a little-endian 32-bit word.
func (m *Memory) Load32(a Addr) uint32 {
	r := m.regionFor(a, 4)
	return r.load32(uint64(a - r.Base))
}

// Store32 writes a little-endian 32-bit word.
func (m *Memory) Store32(a Addr, v uint32) {
	r := m.regionFor(a, 4)
	r.store32(uint64(a-r.Base), v)
}

// Load64 reads a little-endian 64-bit word.
func (m *Memory) Load64(a Addr) uint64 {
	r := m.regionFor(a, 8)
	return r.load64(uint64(a - r.Base))
}

// Store64 writes a little-endian 64-bit word.
func (m *Memory) Store64(a Addr, v uint64) {
	r := m.regionFor(a, 8)
	r.store64(uint64(a-r.Base), v)
}

// The *Cat variants combine the data access with the category lookup of
// the reference's first byte, for the engine's traced accessors: one
// page-table walk serves both the value and the attribution.

// Load8Cat reads one byte and returns the page's category.
func (m *Memory) Load8Cat(a Addr) (uint8, Category) {
	r, cat := m.regionCat(a, 1)
	return r.load8(uint64(a - r.Base)), cat
}

// Store8Cat writes one byte and returns the page's category.
func (m *Memory) Store8Cat(a Addr, v uint8) Category {
	r, cat := m.regionCat(a, 1)
	r.store8(uint64(a-r.Base), v)
	return cat
}

// Load16Cat reads a 16-bit word and returns the page's category.
func (m *Memory) Load16Cat(a Addr) (uint16, Category) {
	r, cat := m.regionCat(a, 2)
	return r.load16(uint64(a - r.Base)), cat
}

// Store16Cat writes a 16-bit word and returns the page's category.
func (m *Memory) Store16Cat(a Addr, v uint16) Category {
	r, cat := m.regionCat(a, 2)
	r.store16(uint64(a-r.Base), v)
	return cat
}

// Load32Cat reads a 32-bit word and returns the page's category.
func (m *Memory) Load32Cat(a Addr) (uint32, Category) {
	r, cat := m.regionCat(a, 4)
	return r.load32(uint64(a - r.Base)), cat
}

// Store32Cat writes a 32-bit word and returns the page's category.
func (m *Memory) Store32Cat(a Addr, v uint32) Category {
	r, cat := m.regionCat(a, 4)
	r.store32(uint64(a-r.Base), v)
	return cat
}

// Load64Cat reads a 64-bit word and returns the page's category.
func (m *Memory) Load64Cat(a Addr) (uint64, Category) {
	r, cat := m.regionCat(a, 8)
	return r.load64(uint64(a - r.Base)), cat
}

// Store64Cat writes a 64-bit word and returns the page's category.
func (m *Memory) Store64Cat(a Addr, v uint64) Category {
	r, cat := m.regionCat(a, 8)
	r.store64(uint64(a-r.Base), v)
	return cat
}

// LoadBytes copies n bytes starting at a into dst (which must be at
// least n long) and returns dst[:n].
func (m *Memory) LoadBytes(a Addr, dst []byte, n int) []byte {
	r := m.regionFor(a, uint64(n))
	off := uint64(a - r.Base)
	if co := off & regionChunkMask; int(co)+n <= regionChunkSize {
		if c := r.chunks[off>>regionChunkShift]; c != nil {
			return dst[:copy(dst[:n], c[co:co+uint64(n)])]
		}
		for i := 0; i < n; i++ {
			dst[i] = 0
		}
		return dst[:n]
	}
	r.loadSlow(off, dst[:n])
	return dst[:n]
}

// StoreBytes copies src into the space starting at a.
func (m *Memory) StoreBytes(a Addr, src []byte) {
	r := m.regionFor(a, uint64(len(src)))
	off := uint64(a - r.Base)
	if co := off & regionChunkMask; int(co)+len(src) <= regionChunkSize {
		copy(r.chunk(off)[co:], src)
		return
	}
	r.storeSlow(off, src)
}
