package experiments

import (
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/simm"
	"repro/internal/stats"
)

// The update-query extension. The paper declined to trace TPC-D's two
// update functions because Postgres95 implements only relation-level
// data locking, making "update queries much more demanding on the
// locking algorithm" — and lists write-intensive queries as future
// work. This experiment runs them anyway on the same machine and
// quantifies that prediction: four processors inserting (UF1) or
// deleting (UF2) serialize on the relation write locks, so MSync and
// lock-metadata traffic dwarf the read-only queries'.

// UpdateResult is one workload's characterization.
type UpdateResult struct {
	Workload string
	Bd       stats.CycleBreakdown
	Machine  machine.Stats
	Rows     int
	Clock    int64 // cycles the phase took (max across processors)
}

// RunUpdate measures Q6 (a read-only baseline), UF1, and UF2 as one
// three-phase stream, every phase flushed: each workload starts from a
// cold cache with one instance per processor, exactly the shape the
// one-shot cold runs had before streams existed. The whole stream is
// one pool job.
func (e *Exec) RunUpdate(o Options) ([]UpdateResult, error) {
	return presetJob(e, "update", o, runUpdate)
}

func runUpdate(s *core.System) []UpdateResult {
	workloads := []string{"Q6", "UF1", "UF2"}
	phases := make([]core.StreamPhase, len(workloads))
	for k, w := range workloads {
		runs := make([][]core.QueryRun, s.Mem.Nodes())
		for i := range runs {
			runs[i] = []core.QueryRun{{Query: w, Variant: uint64(i)}}
		}
		phases[k] = core.StreamPhase{Flush: true, Runs: runs}
	}
	var out []UpdateResult
	for k, rep := range s.RunStream(phases) {
		rows := 0
		for _, r := range rep.Rows {
			rows += r
		}
		out = append(out, UpdateResult{
			Workload: workloads[k],
			Bd:       rep.Total(),
			Machine:  rep.Machine,
			Rows:     rows,
			Clock:    rep.MaxClock(),
		})
	}
	return out
}

// UpdateTable renders the extension experiment: the time breakdown and
// the lock-metadata share of misses for each workload.
func UpdateTable(results []UpdateResult) *stats.Table {
	t := &stats.Table{Header: []string{
		"Workload", "Busy%", "MSync%", "Mem%", "LockMeta-L2miss%", "Rows",
	}}
	for _, r := range results {
		whole := r.Bd.Total()
		l2 := r.Machine.L2Misses
		lockMeta := l2.ByCategory(simm.CatLockSLock) + l2.ByCategory(simm.CatLockHash) +
			l2.ByCategory(simm.CatXidHash)
		total := l2.Total()
		if total == 0 {
			total = 1
		}
		t.AddRow(r.Workload,
			100*float64(r.Bd.Busy)/float64(whole),
			100*float64(r.Bd.MSync)/float64(whole),
			100*float64(r.Bd.MemTotal())/float64(whole),
			100*float64(lockMeta)/float64(total),
			r.Rows)
	}
	return t
}
