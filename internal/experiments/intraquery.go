package experiments

import (
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/pg/executor"
	"repro/internal/sched"
	"repro/internal/simm"
	"repro/internal/stats"
	"repro/internal/tpcd"
)

// Intra-query parallelism, the last item on the paper's future-work
// list: instead of one query per processor (inter-query parallelism,
// the paper's model), a single Q6 is split into page partitions of the
// lineitem table, one per processor, with the partial aggregates
// combined at the end. The experiment compares a 1-processor Q6, the
// paper's 4x inter-query setup, and the 4-way intra-query split.

// IntraResult is one configuration's outcome.
type IntraResult struct {
	Name    string
	Clock   int64 // completion time of the slowest participant
	Bd      stats.CycleBreakdown
	Revenue int64 // Q6's answer, for cross-checking the decomposition
}

// q6Partition runs processor p's share of a partitioned Q6 and returns
// the partial revenue.
func q6Partition(s *core.System, c *executor.Ctx, prm tpcd.Params, lo, hi uint32) int64 {
	li := s.Cat.Relation("lineitem")
	sch := li.Heap.Schema
	scan := executor.NewSeqScan(li, []executor.Pred{
		{Left: executor.Col{Idx: sch.Index("l_shipdate")}, Op: executor.GE, Right: executor.ConstInt(prm.Date)},
		{Left: executor.Col{Idx: sch.Index("l_shipdate")}, Op: executor.LE, Right: executor.ConstInt(prm.Date + 364)},
		{Left: executor.Col{Idx: sch.Index("l_discount")}, Op: executor.GE, Right: executor.ConstInt(prm.Discount - 100)},
		{Left: executor.Col{Idx: sch.Index("l_discount")}, Op: executor.LE, Right: executor.ConstInt(prm.Discount + 100)},
		{Left: executor.Col{Idx: sch.Index("l_quantity")}, Op: executor.LT, Right: executor.ConstInt(prm.Quantity)},
	}, []int{sch.Index("l_extendedprice"), sch.Index("l_discount")})
	scan.PageLo, scan.PageHi = lo, hi
	agg := executor.NewAggregate(scan, []executor.AggSpec{{
		Fn:  executor.AggSum,
		Arg: executor.Arith{Op: '/', L: executor.Arith{Op: '*', L: executor.Col{Idx: 0}, R: executor.Col{Idx: 1}}, R: executor.ConstInt(10000)},
		Out: layout.Attr{Name: "revenue", Kind: layout.Money},
	}})
	rows := executor.Collect(c, agg)
	return rows[0][0].Int
}

// RunIntraQuery measures the three configurations on one database, as
// one pool job.
func (e *Exec) RunIntraQuery(o Options) ([]IntraResult, error) {
	return presetJob(e, "intraquery", o, runIntraQuery)
}

func runIntraQuery(s *core.System) []IntraResult {
	prm := tpcd.ParamsFor("Q6", 0)
	nodes := s.Mem.Nodes()
	npages := s.DB.Lineitem.Heap.NPages

	arenas := make([]*simm.Arena, nodes)
	for i := 0; i < nodes; i++ {
		arenas[i] = simm.NewArena(s.Mem.AllocRegion("intra-priv"+itoa(i), 32<<20, simm.CatPriv, i))
	}

	var out []IntraResult

	// One processor, whole table.
	s.ColdStart()
	var rev1 int64
	bodies := make([]func(*sched.Proc), nodes)
	bodies[0] = func(p *sched.Proc) {
		rev1 = q6Partition(s, s.ExecCtx(p, arenas[0]), prm, 0, npages)
	}
	s.Eng.Run(bodies)
	out = append(out, IntraResult{
		Name: "1-proc", Clock: s.Eng.Procs()[0].Clock(),
		Bd: s.Eng.TotalBreakdown(), Revenue: rev1,
	})

	// The paper's model: four independent Q6 instances.
	rep := s.RunCold("Q6")
	out = append(out, IntraResult{
		Name: "inter-query-4", Clock: rep.MaxClock(), Bd: rep.Total(),
	})

	// Intra-query: one Q6 split into four page partitions.
	s.ColdStart()
	parts := make([]int64, nodes)
	bodies = make([]func(*sched.Proc), nodes)
	for i := 0; i < nodes; i++ {
		i := i
		lo := uint32(uint64(npages) * uint64(i) / uint64(nodes))
		hi := uint32(uint64(npages) * uint64(i+1) / uint64(nodes))
		bodies[i] = func(p *sched.Proc) {
			parts[i] = q6Partition(s, s.ExecCtx(p, arenas[i]), prm, lo, hi)
		}
	}
	s.Eng.Run(bodies)
	var max int64
	var revN int64
	for i, p := range s.Eng.Procs() {
		if p.Clock() > max {
			max = p.Clock()
		}
		revN += parts[i]
	}
	out = append(out, IntraResult{
		Name: "intra-query-4", Clock: max, Bd: s.Eng.TotalBreakdown(), Revenue: revN,
	})
	return out
}

// IntraQueryTable renders the comparison: completion time relative to
// the 1-processor run, and the speedup.
func IntraQueryTable(results []IntraResult) *stats.Table {
	t := &stats.Table{Header: []string{"Config", "Cycles", "Speedup", "Busy%", "MSync%", "Mem%"}}
	if len(results) == 0 {
		return t
	}
	base := results[0].Clock
	for _, r := range results {
		whole := r.Bd.Total()
		t.AddRow(r.Name, r.Clock,
			float64(base)/float64(r.Clock),
			100*float64(r.Bd.Busy)/float64(whole),
			100*float64(r.Bd.MSync)/float64(whole),
			100*float64(r.Bd.MemTotal())/float64(whole))
	}
	return t
}
