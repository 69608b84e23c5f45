// Package core is the paper's system as a library: it assembles the
// simulated shared-memory machine, the Postgres95-style storage engine,
// and the TPC-D workload, loads the scaled database untraced, and runs
// per-processor query streams collecting the full memory-performance
// characterization (execution-time breakdowns, per-structure miss
// tables, miss rates).
package core

import (
	"fmt"

	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/pg/bufmgr"
	"repro/internal/pg/catalog"
	"repro/internal/pg/executor"
	"repro/internal/pg/lockmgr"
	"repro/internal/sched"
	"repro/internal/simm"
	"repro/internal/stats"
	"repro/internal/tpcd"
)

// Config assembles a system.
type Config struct {
	Machine machine.Config
	Sched   sched.Config
	DB      tpcd.Config

	// LockTableSlots sizes the lock manager's hash tables.
	LockTableSlots int
	// PrivateHeapBytes is each process's private heap region.
	PrivateHeapBytes uint64
	// Per-tuple executor cost model (see executor.Ctx): scattered
	// private touches, hot private touches, and busy cycles.
	OverheadTouches int
	HotTouches      int
	TupleBusy       int64
	IndexTupleBusy  int64
}

// DefaultConfig is the paper's setup: the baseline 4-processor machine
// and the 100x-scaled-down TPC-D database.
func DefaultConfig() Config {
	return Config{
		Machine:          machine.Baseline(),
		Sched:            sched.DefaultConfig(),
		DB:               tpcd.DefaultConfig(),
		LockTableSlots:   8192,
		PrivateHeapBytes: 96 << 20,
		OverheadTouches:  3,
		HotTouches:       40,
		TupleBusy:        650,
		IndexTupleBusy:   8000,
	}
}

// System is an assembled machine + database instance.
type System struct {
	Cfg Config

	Mem     *simm.Memory
	Mach    *machine.Machine
	Eng     *sched.Engine
	BufMgr  *bufmgr.Manager
	LockMgr *lockmgr.Manager
	Cat     *catalog.Catalog
	DB      *tpcd.Database

	privRegions []*simm.Region
	decode      decodeBufs // self-replay decode buffers (see runPhase)
}

// NewSystem builds the machine, loads and indexes the database
// (untraced), and flushes the caches so measurement starts cold.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	nodes := cfg.Machine.Nodes
	mem := simm.New(nodes)
	bm := bufmgr.New(mem, tpcd.BuffersNeeded(cfg.DB.ScaleFactor))
	lm := lockmgr.New(mem, cfg.LockTableSlots)
	cat := catalog.New(mem, bm, lm, nodes)
	db := tpcd.Generate(cat, cfg.DB)

	s := &System{
		Cfg: cfg, Mem: mem, BufMgr: bm, LockMgr: lm, Cat: cat, DB: db,
	}
	for i := 0; i < nodes; i++ {
		s.privRegions = append(s.privRegions,
			mem.AllocRegion(fmt.Sprintf("PrivateHeap%d", i), cfg.PrivateHeapBytes, simm.CatPriv, i))
	}
	if err := s.ReplaceMachine(cfg.Machine); err != nil {
		return nil, err
	}
	return s, nil
}

// ReplaceMachine swaps in a fresh memory-system model with a new
// configuration (same node count), reusing the loaded database. The
// cache-geometry sweeps of Figures 8-11 use this to avoid regenerating
// the database per configuration.
func (s *System) ReplaceMachine(cfg machine.Config) error {
	if cfg.Nodes != s.Mem.Nodes() {
		return fmt.Errorf("core: cannot change node count from %d to %d", s.Mem.Nodes(), cfg.Nodes)
	}
	m, err := machine.New(cfg, s.Mem)
	if err != nil {
		return err
	}
	s.Mach = m
	s.Cfg.Machine = cfg
	s.Eng = sched.New(s.Cfg.Sched, s.Mem, m)
	return nil
}

// QueryRun names one query execution on one processor.
type QueryRun struct {
	Query   string
	Variant uint64
}

// SameQueryAllProcs builds the paper's workload shape: every processor
// runs the same query type with different parameters.
func (s *System) SameQueryAllProcs(query string) []QueryRun {
	runs := make([]QueryRun, s.Mem.Nodes())
	for i := range runs {
		runs[i] = QueryRun{Query: query, Variant: uint64(i)}
	}
	return runs
}

// Report is the characterization of one measured run.
type Report struct {
	Queries []string
	PerProc []stats.CycleBreakdown
	Clocks  []int64
	Machine machine.Stats
	Rows    []int
}

// Total sums the per-processor breakdowns.
func (r *Report) Total() stats.CycleBreakdown {
	var t stats.CycleBreakdown
	for i := range r.PerProc {
		t.AddAll(&r.PerProc[i])
	}
	return t
}

// MaxClock returns the slowest processor's finish time — the run's
// execution time.
func (r *Report) MaxClock() int64 {
	var m int64
	for _, c := range r.Clocks {
		if c > m {
			m = c
		}
	}
	return m
}

// RunQueries executes one query per processor (nil-query processors
// idle) and reports the measurement. Statistics accumulate from the
// current machine state; use ColdStart or ResetMeasurement first to
// control what is measured. It is the one-run-per-processor degenerate
// case of the phase executor (see RunStream).
func (s *System) RunQueries(runs []QueryRun) *Report {
	if len(runs) != s.Mem.Nodes() {
		panic(fmt.Sprintf("core: %d runs for %d processors", len(runs), s.Mem.Nodes()))
	}
	rep, _, _ := s.runPhase(singleRunLists(runs), false)
	return rep
}

// singleRunLists lifts the legacy one-run-per-processor shape into the
// phase executor's per-processor run lists.
func singleRunLists(runs []QueryRun) [][]QueryRun {
	lists := make([][]QueryRun, len(runs))
	for i, r := range runs {
		if r.Query != "" {
			lists[i] = []QueryRun{r}
		}
	}
	return lists
}

// phaseBodies builds one executor body per processor for one stream
// phase: processor i executes runLists[i] in order (missing or empty
// lists idle the processor). It fills rep.Queries with per-processor
// labels (multi-run processors join theirs with "+") and arranges for
// each run's result-row count to land in *slot(proc, run) when the
// bodies execute. Every run gets a fresh arena over the processor's
// private heap, exactly as consecutive RunQueries calls would.
func (s *System) phaseBodies(runLists [][]QueryRun, rep *Report, slot func(proc, run int) *int) []func(*sched.Proc) {
	n := s.Mem.Nodes()
	bodies := make([]func(*sched.Proc), n)
	for i := 0; i < n; i++ {
		var list []QueryRun
		if i < len(runLists) {
			list = runLists[i]
		}
		type plannedRun struct {
			run   QueryRun
			arena *simm.Arena
			out   *int
		}
		var plan []plannedRun
		label := ""
		for j, run := range list {
			if run.Query == "" {
				continue
			}
			if label != "" {
				label += "+"
			}
			label += run.Query
			plan = append(plan, plannedRun{run: run, arena: simm.NewArena(s.privRegions[i]), out: slot(i, j)})
		}
		rep.Queries = append(rep.Queries, label)
		if len(plan) == 0 {
			continue
		}
		bodies[i] = func(p *sched.Proc) {
			for _, pr := range plan {
				c := &executor.Ctx{
					P: p, Xid: p.ID(), Mem: s.Mem, Arena: pr.arena,
					Cat:             s.Cat,
					OverheadTouches: s.Cfg.OverheadTouches,
					HotTouches:      s.Cfg.HotTouches,
					TupleBusy:       s.Cfg.TupleBusy,
					IndexTupleBusy:  s.Cfg.IndexTupleBusy,
				}
				switch pr.run.Query {
				case "UF1":
					*pr.out = len(s.DB.RunUF1(c, s.DB.UFCount(), pr.run.Variant))
				case "UF2":
					*pr.out = s.DB.RunUF2(c, s.DB.UFCount(), pr.run.Variant)
				default:
					qp := tpcd.BuildQuery(s.DB, pr.run.Query, pr.run.Variant)
					*pr.out = executor.Drain(c, qp.Root)
				}
			}
		}
	}
	return bodies
}

// finishReport snapshots the per-processor and machine state into rep
// after a run (live or replayed) completes.
func (s *System) finishReport(rep *Report) {
	for _, p := range s.Eng.Procs() {
		rep.PerProc = append(rep.PerProc, p.Breakdown())
		rep.Clocks = append(rep.Clocks, p.Clock())
	}
	rep.Machine = *s.Mach.Stats()
}

// CollectRows runs one query instance on processor 0 and returns its
// result rows and output column names. It is a convenience for result
// inspection; it perturbs machine state, so reset or flush before the
// next measured run.
func (s *System) CollectRows(query string, variant uint64) ([][]layout.Datum, []string) {
	var rows [][]layout.Datum
	var cols []string
	arena := simm.NewArena(s.privRegions[0])
	bodies := make([]func(*sched.Proc), s.Mem.Nodes())
	bodies[0] = func(p *sched.Proc) {
		c := &executor.Ctx{
			P: p, Xid: p.ID(), Mem: s.Mem, Arena: arena,
			Cat:             s.Cat,
			OverheadTouches: s.Cfg.OverheadTouches,
			HotTouches:      s.Cfg.HotTouches,
			TupleBusy:       s.Cfg.TupleBusy,
			IndexTupleBusy:  s.Cfg.IndexTupleBusy,
		}
		plan := tpcd.BuildQuery(s.DB, query, variant)
		sch := plan.Root.Schema()
		for i := 0; i < sch.NumAttrs(); i++ {
			cols = append(cols, sch.Attr(i).Name)
		}
		rows = executor.Collect(c, plan.Root)
	}
	s.Eng.Run(bodies)
	return rows, cols
}

// ColdStart flushes caches and clears all measurement state: the next
// run starts with untouched caches, like the paper's measured runs.
func (s *System) ColdStart() {
	s.Mach.Flush()
	s.ResetMeasurement()
}

// ResetMeasurement clears counters and clocks but keeps cache contents:
// the warm-cache experiments measure the second query of a pair this
// way.
func (s *System) ResetMeasurement() {
	s.Mach.ResetStats()
	s.Eng.ResetBreakdowns()
}

// RunCold is the common pattern: cold caches, one query per processor.
func (s *System) RunCold(query string) *Report {
	s.ColdStart()
	return s.RunQueries(s.SameQueryAllProcs(query))
}
