// Package experiments reproduces every table and figure of the paper's
// evaluation: Table 1 (query operator matrix), Figure 6 (execution-time
// breakdowns), Figure 7 (miss classification by data structure),
// Figures 8-9 (cache line size sweeps), Figures 10-11 (cache size
// sweeps), Figure 12 (inter-query reuse with warm caches), and
// Figure 13 (sequential data prefetching).
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/simm"
	"repro/internal/stats"
	"repro/internal/tpcd"
)

// Options parameterizes an experiment run.
type Options struct {
	// Scale is the TPC-D scale factor; the paper uses 0.01 (the
	// standard data set scaled down 100 times, ~20 MB).
	Scale float64
	// Seed drives database generation.
	Seed uint64
	// Queries are the traced queries; the paper picks Q3, Q6, Q12 as
	// the representatives of its three groups.
	Queries []string
}

// Defaults returns the paper's experiment options.
func Defaults() Options {
	return Options{Scale: 0.01, Seed: 12345, Queries: []string{"Q3", "Q6", "Q12"}}
}

// ---------------------------------------------------------------------
// Table 1

// table1Of builds the Table 1 operator matrix — the operations
// appearing in the plan of every read-only TPC-D query — from a loaded
// system.
func table1Of(s *core.System) *stats.Table {
	t := &stats.Table{Header: []string{"Query", "SS", "IS", "NL", "M", "H", "Sort", "Group", "Aggr"}}
	for _, q := range tpcd.QueryNames {
		plan := tpcd.BuildQuery(s.DB, q, 0)
		row := []interface{}{q}
		for _, on := range plan.OpsRow() {
			if on {
				row = append(row, "x")
			} else {
				row = append(row, "")
			}
		}
		t.AddRow(row...)
	}
	return t
}

// ---------------------------------------------------------------------
// Figures 6 and 7: baseline characterization

// QueryResult is one query's cold-start measurement on a machine.
type QueryResult struct {
	Query  string
	Report *core.Report
}

// Fig6 renders Figure 6: (a) normalized execution time broken into
// Busy / MSync / Mem; (b) the Mem portion decomposed by data-structure
// group.
func Fig6(results []QueryResult) (a, b *stats.Table) {
	a = &stats.Table{Header: []string{"Query", "Busy%", "MSync%", "Mem%"}}
	b = &stats.Table{Header: []string{"Query", "Data%", "Index%", "Metadata%", "Priv%"}}
	for _, r := range results {
		tot := r.Report.Total()
		whole := tot.Total()
		a.AddRow(r.Query,
			100*float64(tot.Busy)/float64(whole),
			100*float64(tot.MSync)/float64(whole),
			100*float64(tot.MemTotal())/float64(whole))
		g := tot.MemByGroup()
		mem := tot.MemTotal()
		if mem == 0 {
			mem = 1
		}
		b.AddRow(r.Query,
			100*float64(g[simm.GroupData])/float64(mem),
			100*float64(g[simm.GroupIndex])/float64(mem),
			100*float64(g[simm.GroupMetadata])/float64(mem),
			100*float64(g[simm.GroupPriv])/float64(mem))
	}
	return a, b
}

// fig7Structures is the paper's Figure 7 x-axis.
var fig7Structures = []simm.Category{
	simm.CatPriv, simm.CatData, simm.CatIndex, simm.CatBufDesc,
	simm.CatBufLook, simm.CatLockHash, simm.CatXidHash, simm.CatLockSLock,
}

// Fig7 renders Figure 7 for one query: read misses in the primary and
// secondary caches classified by data structure and kind, each chart
// normalized so its total is 100, plus the absolute miss rates.
func Fig7(r QueryResult) (l1, l2 *stats.Table, rates string) {
	mk := func(mc *stats.MissCounts) *stats.Table {
		t := &stats.Table{Header: []string{"Struct", "Cold", "Conf", "Cohe", "Total"}}
		total := mc.Total()
		if total == 0 {
			total = 1
		}
		norm := func(v uint64) float64 { return 100 * float64(v) / float64(total) }
		for _, cat := range fig7Structures {
			t.AddRow(cat.String(),
				norm(mc[cat][stats.Cold]), norm(mc[cat][stats.Conf]),
				norm(mc[cat][stats.Cohe]), norm(mc.ByCategory(cat)))
		}
		return t
	}
	st := r.Report.Machine
	rates = fmt.Sprintf("%s: L1 miss rate %.1f%%, L2 global miss rate %.2f%%",
		r.Query, 100*st.L1MissRate(), 100*st.L2MissRate())
	return mk(&st.L1Misses), mk(&st.L2Misses), rates
}

// ---------------------------------------------------------------------
// Figures 8 and 9: spatial locality (line size sweep)

// LineSizes is the paper's secondary-cache line-size sweep; the primary
// line is always half. The list lives in the scenario package (the fig8
// preset's sweep points); this alias keeps the historical name.
var LineSizes = scenario.LineSizes

// BaselineL2Line is the baseline's secondary line size (the
// normalization point of Figures 8 and 9).
const BaselineL2Line = 64

// SweepPoint is one (query, machine configuration) measurement.
type SweepPoint struct {
	Query  string
	Param  int // line size or secondary cache bytes
	L1Miss [simm.NumGroups]uint64
	L2Miss [simm.NumGroups]uint64
	Bd     stats.CycleBreakdown
	Clock  int64
}

// findPoint returns the sweep point for (query, param); it panics when
// absent, which means a caller asked for a parameter outside the sweep.
func findPoint(points []SweepPoint, q string, param int) SweepPoint {
	for _, p := range points {
		if p.Query == q && p.Param == param {
			return p
		}
	}
	panic(fmt.Sprintf("experiments: no sweep point %s/%d", q, param))
}

// groupTotal sums a per-group miss vector.
func groupTotal(g [simm.NumGroups]uint64) uint64 {
	var t uint64
	for _, v := range g {
		t += v
	}
	return t
}

// normTables renders one Figure 8/10-style chart pair (L1, L2 misses by
// group per parameter value, normalized to 100 at the baseline
// parameter).
func normTables(points []SweepPoint, query, paramName string, baseline int) (l1, l2 *stats.Table) {
	header := []string{paramName, "Priv", "Data", "Index", "Metadata", "Total"}
	l1 = &stats.Table{Header: header}
	l2 = &stats.Table{Header: header}
	var baseL1, baseL2 uint64 = 1, 1
	for _, p := range points {
		if p.Query == query && p.Param == baseline {
			baseL1 = groupTotal(p.L1Miss)
			baseL2 = groupTotal(p.L2Miss)
		}
	}
	add := func(t *stats.Table, p SweepPoint, g [simm.NumGroups]uint64, base uint64) {
		t.AddRow(p.Param,
			100*float64(g[simm.GroupPriv])/float64(base),
			100*float64(g[simm.GroupData])/float64(base),
			100*float64(g[simm.GroupIndex])/float64(base),
			100*float64(g[simm.GroupMetadata])/float64(base),
			100*float64(groupTotal(g))/float64(base))
	}
	for _, p := range points {
		if p.Query != query {
			continue
		}
		add(l1, p, p.L1Miss, baseL1)
		add(l2, p, p.L2Miss, baseL2)
	}
	return l1, l2
}

// Fig8 renders Figure 8 for one query.
func Fig8(points []SweepPoint, query string) (l1, l2 *stats.Table) {
	return normTables(points, query, "L2Line", BaselineL2Line)
}

// timeTable renders one Figure 9/11-style chart: execution time per
// parameter, split Busy / MSync / PMem / SMem, normalized to 100 at the
// baseline parameter.
func timeTable(points []SweepPoint, query, paramName string, baseline int) *stats.Table {
	t := &stats.Table{Header: []string{paramName, "Busy", "MSync", "PMem", "SMem", "Total"}}
	base := uint64(1)
	for _, p := range points {
		if p.Query == query && p.Param == baseline {
			base = p.Bd.Total()
		}
	}
	for _, p := range points {
		if p.Query != query {
			continue
		}
		t.AddRow(p.Param,
			100*float64(p.Bd.Busy)/float64(base),
			100*float64(p.Bd.MSync)/float64(base),
			100*float64(p.Bd.PMem())/float64(base),
			100*float64(p.Bd.SMem())/float64(base),
			100*float64(p.Bd.Total())/float64(base))
	}
	return t
}

// Fig9 renders Figure 9 for one query.
func Fig9(points []SweepPoint, query string) *stats.Table {
	return timeTable(points, query, "L2Line", BaselineL2Line)
}

// ---------------------------------------------------------------------
// Figures 10 and 11: temporal locality (cache size sweep)

// CacheSizes is the paper's sweep: 4-KB/128-KB up to 256-KB/8-MB caches
// (the L1:L2 ratio stays 1:32). Param is the secondary size in KB; the
// list is the fig10 preset's sweep points.
var CacheSizes = scenario.CacheSizesKB

// BaselineL2KB is the baseline secondary cache size in KB.
const BaselineL2KB = 128

// Fig10 renders Figure 10 for one query.
func Fig10(points []SweepPoint, query string) (l1, l2 *stats.Table) {
	return normTables(points, query, "L2KB", BaselineL2KB)
}

// Fig11 renders Figure 11 for one query.
func Fig11(points []SweepPoint, query string) *stats.Table {
	return timeTable(points, query, "L2KB", BaselineL2KB)
}

// ---------------------------------------------------------------------
// Figure 12: inter-query reuse

// WarmResult is one warm-cache scenario: the misses of the target query
// when the caches were first warmed by the warmer ("" = cold start).
type WarmResult struct {
	Target string
	Warmer string
	L2     [simm.NumGroups]uint64
	Clock  int64 // cycles the pair simulated: each phase's max across processors, summed
}

// Fig12 renders Figure 12 for one target query, normalized to 100 for
// the cold-start total.
func Fig12(results []WarmResult, target string) *stats.Table {
	t := &stats.Table{Header: []string{"WarmedBy", "Priv", "Data", "Index", "Metadata", "Total"}}
	base := uint64(1)
	for _, r := range results {
		if r.Target == target && r.Warmer == "" {
			base = groupTotal(r.L2)
		}
	}
	for _, r := range results {
		if r.Target != target {
			continue
		}
		name := r.Warmer
		if name == "" {
			name = "(cold)"
		}
		t.AddRow(name,
			100*float64(r.L2[simm.GroupPriv])/float64(base),
			100*float64(r.L2[simm.GroupData])/float64(base),
			100*float64(r.L2[simm.GroupIndex])/float64(base),
			100*float64(r.L2[simm.GroupMetadata])/float64(base),
			100*float64(groupTotal(r.L2))/float64(base))
	}
	return t
}

// ---------------------------------------------------------------------
// Figure 13: sequential data prefetching

// PrefetchResult compares one query's baseline and prefetching runs.
type PrefetchResult struct {
	Query    string
	Base     stats.CycleBreakdown
	Opt      stats.CycleBreakdown
	BaseClk  int64
	OptClk   int64
	Prefetch uint64
}

// Fig13 renders Figure 13: Base and Opt execution-time breakdowns per
// query, normalized to Base = 100.
func Fig13(results []PrefetchResult) *stats.Table {
	t := &stats.Table{Header: []string{"Query", "Arch", "Busy", "MSync", "PMem", "SMem", "Total"}}
	for _, r := range results {
		base := r.Base.Total()
		add := func(arch string, bd stats.CycleBreakdown) {
			t.AddRow(r.Query, arch,
				100*float64(bd.Busy)/float64(base),
				100*float64(bd.MSync)/float64(base),
				100*float64(bd.PMem())/float64(base),
				100*float64(bd.SMem())/float64(base),
				100*float64(bd.Total())/float64(base))
		}
		add("Base", r.Base)
		add("Opt", r.Opt)
	}
	return t
}
