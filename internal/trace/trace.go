// Package trace implements the address-trace analysis side of the
// paper's methodology: Section 3 reasons about the spatial and temporal
// locality of each data structure by inspecting the references the
// queries issue. The Analyzer, attached as sched.Engine's Recorder,
// consumes the reference stream and quantifies those claims — references
// and footprint per structure, re-reference behaviour (immediate
// re-reads vs. distant reuse), and within-line spatial utilization.
package trace

import (
	"repro/internal/simm"
	"repro/internal/stats"
)

// LineSize is the granularity of the locality analysis (the baseline
// secondary-cache line).
const LineSize = 64

// lineStat tracks one cache line's history.
type lineStat struct {
	refs      uint64
	lastRef   uint64 // global reference counter at last touch
	wordsMask uint64 // which 8-byte words of the line were ever touched
}

// CatProfile is the locality profile of one data-structure category.
type CatProfile struct {
	Refs          uint64 // traced references
	Writes        uint64
	Lines         uint64 // distinct 64-byte lines (footprint/64)
	ImmediateRefs uint64 // re-references within ImmediateWindow refs
	DistantRefs   uint64 // re-references beyond it (temporal locality)
	WordsTouched  uint64 // distinct 8-byte words across all lines
}

// RefsPerLine is the average number of references per distinct line —
// the temporal-reuse headline ("data is not reused within a query"
// shows up as a small value on Data for Sequential queries).
func (c CatProfile) RefsPerLine() float64 {
	if c.Lines == 0 {
		return 0
	}
	return float64(c.Refs) / float64(c.Lines)
}

// LineUtilization is the average fraction of each touched line's bytes
// that the query actually referenced — the spatial-locality headline.
func (c CatProfile) LineUtilization() float64 {
	if c.Lines == 0 {
		return 0
	}
	return float64(c.WordsTouched) / float64(c.Lines*(LineSize/8))
}

// DistantShare is the fraction of references that revisit a line after
// more than ImmediateWindow other references — true temporal reuse, as
// opposed to the read-then-copy immediate re-reads the paper discounts.
func (c CatProfile) DistantShare() float64 {
	if c.Refs == 0 {
		return 0
	}
	return float64(c.DistantRefs) / float64(c.Refs)
}

// ImmediateWindow separates the paper's "attribute read again
// immediately and copied to private storage" pattern from genuine
// temporal reuse.
const ImmediateWindow = 200

// Analyzer accumulates per-category locality profiles from a reference
// stream.
type Analyzer struct {
	mem   *simm.Memory
	lines map[uint64]*lineStat
	prof  [simm.NumCategories]CatProfile
	clock uint64
}

// NewAnalyzer creates an analyzer over the simulated address space.
func NewAnalyzer(mem *simm.Memory) *Analyzer {
	return &Analyzer{mem: mem, lines: make(map[uint64]*lineStat)}
}

// The Analyzer implements sched.Recorder: it profiles every data
// reference and ignores the other events.

// BusyEvent implements sched.Recorder.
func (an *Analyzer) BusyEvent(int, int64) {}

// SpinAcquire implements sched.Recorder.
func (an *Analyzer) SpinAcquire(int, simm.Addr) {}

// SpinRelease implements sched.Recorder.
func (an *Analyzer) SpinRelease(int, simm.Addr) {}

// BeginLockOp implements sched.Recorder.
func (an *Analyzer) BeginLockOp(int, bool, uint32, uint8, uint32, uint8) {}

// EndLockOp implements sched.Recorder.
func (an *Analyzer) EndLockOp(int) {}

// Ref implements sched.Recorder: it profiles one data reference.
func (an *Analyzer) Ref(_ int, a simm.Addr, size int, write bool) {
	cat := an.mem.CategoryOf(a)
	p := &an.prof[cat]
	an.clock++
	p.Refs++
	if write {
		p.Writes++
	}
	line := uint64(a) / LineSize
	ls := an.lines[line]
	if ls == nil {
		ls = &lineStat{}
		an.lines[line] = ls
		p.Lines++
	} else {
		if an.clock-ls.lastRef <= ImmediateWindow {
			p.ImmediateRefs++
		} else {
			p.DistantRefs++
		}
	}
	ls.refs++
	ls.lastRef = an.clock
	// Mark the words the access covers.
	first := (uint64(a) % LineSize) / 8
	last := (uint64(a) + uint64(size) - 1) % LineSize / 8
	if uint64(a)/LineSize != (uint64(a)+uint64(size)-1)/LineSize {
		last = LineSize/8 - 1 // clamp to this line; the next access covers the rest
	}
	for w := first; w <= last; w++ {
		if ls.wordsMask&(1<<w) == 0 {
			ls.wordsMask |= 1 << w
			p.WordsTouched++
		}
	}
}

// Profile returns the accumulated profile of one category.
func (an *Analyzer) Profile(c simm.Category) CatProfile { return an.prof[c] }

// TotalRefs returns all references seen.
func (an *Analyzer) TotalRefs() uint64 { return an.clock }

// Reset clears all state (between queries).
func (an *Analyzer) Reset() {
	an.lines = make(map[uint64]*lineStat)
	an.prof = [simm.NumCategories]CatProfile{}
	an.clock = 0
}

// Table renders the Section 3 analysis: one row per structure group
// with references, footprint, temporal reuse, and spatial utilization.
func (an *Analyzer) Table() *stats.Table {
	t := &stats.Table{Header: []string{
		"Struct", "Refs", "Lines", "Refs/Line", "Distant%", "LineUtil%",
	}}
	order := []simm.Category{
		simm.CatPriv, simm.CatData, simm.CatIndex, simm.CatBufDesc,
		simm.CatBufLook, simm.CatLockHash, simm.CatXidHash, simm.CatLockSLock,
	}
	for _, c := range order {
		p := an.prof[c]
		if p.Refs == 0 {
			continue
		}
		t.AddRow(c.String(), p.Refs, p.Lines,
			p.RefsPerLine(), 100*p.DistantShare(), 100*p.LineUtilization())
	}
	return t
}
