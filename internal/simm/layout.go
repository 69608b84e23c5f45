package simm

import "fmt"

// Layout is a reconstructible snapshot of an address space's shape: the
// region sequence (which fixes every base address, since regions are
// carved out linearly) and the page-category table with all
// SetPageCategory overrides applied, run-length encoded. It
// deliberately excludes data contents — the memory-system model
// consults only page-table attributes, so a trace replay can rebuild an
// address space that *times* identically to the original from the
// layout alone, without regenerating the database.
type Layout struct {
	Nodes   int
	Regions []LayoutRegion
	Cats    []CatRun
}

// LayoutRegion describes one region in allocation order. Size is the
// page-aligned allocated size, so replaying the allocations reproduces
// every base address exactly.
type LayoutRegion struct {
	Name string
	Size uint64
	Cat  Category
	Node int
}

// CatRun is one run of the page-category RLE, covering Pages
// consecutive pages starting where the previous run ended (the first
// run starts at page 1; page 0 is unmapped by construction).
type CatRun struct {
	Pages uint32
	Cat   Category
}

// Layout snapshots the address space's reconstructible shape.
func (m *Memory) Layout() Layout {
	l := Layout{Nodes: m.nodes}
	for _, r := range m.regions {
		l.Regions = append(l.Regions, LayoutRegion{
			Name: r.Name, Size: r.Size, Cat: r.Cat, Node: r.Node,
		})
	}
	for p := 1; p < len(m.pageCat); p++ {
		cat := m.pageCat[p]
		if n := len(l.Cats); n > 0 && l.Cats[n-1].Cat == cat {
			l.Cats[n-1].Pages++
		} else {
			l.Cats = append(l.Cats, CatRun{Pages: 1, Cat: cat})
		}
	}
	return l
}

// NewFromLayout rebuilds an address space with the exact region bases,
// page homes, and page categories of the snapshotted one. Contents are
// zero (fresh simulated memory reads as zero), which suffices for
// timing replay and for the live re-execution of spinlocks and lock
// tables, whose zero state is the released/empty state.
func NewFromLayout(l Layout) (*Memory, error) {
	span := uint64(PageSize) // page 0 stays unmapped
	for _, lr := range l.Regions {
		if lr.Size == 0 || lr.Size%PageSize != 0 {
			return nil, fmt.Errorf("simm: layout region %s has unaligned size %d", lr.Name, lr.Size)
		}
		span += lr.Size
	}
	m := New(l.Nodes)
	m.growPages(int(span/PageSize) - 1)
	m.regions = make([]*Region, 0, len(l.Regions))
	for _, lr := range l.Regions {
		m.AllocRegion(lr.Name, lr.Size, lr.Cat, lr.Node)
	}
	p := 1
	for _, run := range l.Cats {
		for i := uint32(0); i < run.Pages; i++ {
			if p >= len(m.pageCat) {
				return nil, fmt.Errorf("simm: layout category runs cover %d+ pages, space has %d", p, len(m.pageCat)-1)
			}
			m.pageCat[p] = run.Cat
			p++
		}
	}
	if p != len(m.pageCat) {
		return nil, fmt.Errorf("simm: layout category runs cover %d pages, space has %d", p-1, len(m.pageCat)-1)
	}
	return m, nil
}

// RegionByName returns the region with the given name, or nil. Replay
// uses it to reattach module state (lock tables, spinlocks) to the
// regions a layout reconstruction re-created.
func (m *Memory) RegionByName(name string) *Region {
	for _, r := range m.regions {
		if r.Name == name {
			return r
		}
	}
	return nil
}
