package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/simm"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Stream workloads through the runner. A multi-phase spec expands into
// one job per phase, chained by After edges on a shared live system:
// phase k's cache identity is the spec narrowed to phases[:k+1], so two
// streams sharing a warm prefix share the prefix's cache entries, and a
// cached prefix is never re-simulated. When the pool has a trace store
// the phases are recorded as they run, and the last phase's job
// assembles the whole stream's segmented trace and spills it there; a
// later submission that misses the result cache but finds the blob
// derives any phase by replaying segments 0..k — no executor work.
// Without a store nothing could read the recording back, so the phases
// run unrecorded.

// StreamPhaseResult is one phase of a stream workload's measurement.
type StreamPhaseResult struct {
	Phase   int
	Flush   bool
	Queries []string // per-processor run labels ("" = idle, "+"-joined chains)
	Report  *core.Report
}

// streamState is the bookkeeping one stream's phase-job chain shares
// through its closures: how many phases the live system has executed
// (cache hits skip their jobs entirely, so the first miss catches up
// from here) and the trace segments recorded so far.
type streamState struct {
	next int
	segs []trace.Segment
}

// streamJobs builds the capture-per-stream job chain for a validated
// phase workload. Jobs must run in order on one warm system, so each
// depends on its predecessor and all name one batch-scoped StateKey.
func (e *Exec) streamJobs(sc scenario.Scenario) []*runner.Job {
	full := sc
	full.Name = ""
	full.Sweep = scenario.Sweep{}
	phases := core.StreamPhasesFromSpec(full.Workload.Phases)
	mcfg := full.Machine.MachineConfig()
	st := &streamState{}
	sk := "stream/" + full.Hash()
	jobs := make([]*runner.Job, len(phases))
	captureKey := "" // the last job's key, assigned once the chain exists
	for k := range phases {
		k := k
		spec := full
		spec.Workload.Phases = full.Workload.Phases[:k+1]
		last := k == len(phases)-1
		job := &runner.Job{
			Name:     fmt.Sprintf("stream/phase%d", k),
			Mode:     "stream",
			Spec:     spec,
			StateKey: sk,
		}
		if k > 0 {
			job.After = []*runner.Job{jobs[k-1]}
		}
		job.Body = func(c *runner.Ctx) (interface{}, error) {
			// A spilled capture of the whole stream serves this phase by
			// replaying segments 0..k — but only while the live system is
			// still untouched, or the replayed state would diverge from it.
			if st.next == 0 && captureKey != "" {
				if rd, ok := c.TraceReaderFor(captureKey); ok {
					if rep, err := e.replayStored(rd, mcfg, k, len(phases)); err == nil {
						return rep, nil
					}
					// Damaged or mismatched blob: fall through to executing.
				}
			}
			s, err := c.System()
			if err != nil {
				return nil, err
			}
			run := phases[st.next : k+1]
			st.next = k + 1
			if !c.HasTraceStore() {
				reps := s.RunStream(run)
				return reps[len(reps)-1], nil
			}
			reps, segs := s.RunStreamRecorded(run)
			st.segs = append(st.segs, segs...)
			if last && len(st.segs) == len(phases) {
				c.PutTraceBlob(e.encodeCapture(s.StreamTrace(st.segs)))
				// Every job body of the chain closes over st: without this
				// the (now released) segments would stay reachable for as
				// long as the runner keeps the jobs.
				st.segs = nil
			}
			return reps[len(reps)-1], nil
		}
		jobs[k] = job
	}
	captureKey = jobs[len(jobs)-1].Key()
	return jobs
}

// runStreamSpec executes a phase workload and collects one result per
// phase, in phase order.
func (e *Exec) runStreamSpec(sc scenario.Scenario) ([]StreamPhaseResult, error) {
	jobs := e.streamJobs(sc)
	raw, err := e.pool.RunAll(context.Background(), jobs)
	if err != nil {
		return nil, err
	}
	out := make([]StreamPhaseResult, len(raw))
	for k, r := range raw {
		rep := asReport(r)
		out[k] = StreamPhaseResult{
			Phase:   k,
			Flush:   sc.Workload.Phases[k].Flush,
			Queries: rep.Queries,
			Report:  rep,
		}
	}
	return out, nil
}

// queryKind maps a query to the paper's taxonomy: Q6 scans
// sequentially, Q3/Q12 are index queries, UF1/UF2 are the update
// transactions.
func queryKind(q string) string {
	switch q {
	case "Q6":
		return "Sequential"
	case "UF1", "UF2":
		return "Update"
	}
	return "Index"
}

// phaseKind classifies a phase by the kinds of its runs: a single kind
// names itself, any update in a mix marks the phase Update+Read, and a
// read-only mix is Mixed.
func phaseKind(labels []string) string {
	kinds := map[string]bool{}
	for _, l := range labels {
		if l == "" {
			continue
		}
		for _, q := range strings.Split(l, "+") {
			kinds[queryKind(q)] = true
		}
	}
	if len(kinds) == 1 {
		for k := range kinds {
			return k
		}
	}
	if kinds["Update"] {
		return "Update+Read"
	}
	return "Mixed"
}

// streamClocks extracts the per-phase completion clocks of a stream.
func streamClocks(res []StreamPhaseResult) []int64 {
	out := make([]int64, len(res))
	for i, r := range res {
		out[i] = r.Report.MaxClock()
	}
	return out
}

// StreamPhaseTable renders a stream's per-phase execution: the boundary
// policy, the taxonomy mix, every processor's run chain, and the time
// breakdown.
func StreamPhaseTable(res []StreamPhaseResult) *stats.Table {
	t := &stats.Table{Header: []string{
		"Phase", "Start", "Kind", "Procs", "Busy%", "MSync%", "Mem%", "Cycles",
	}}
	for _, r := range res {
		bd := r.Report.Total()
		whole := bd.Total()
		if whole == 0 {
			whole = 1
		}
		start := "warm"
		if r.Flush {
			start = "cold"
		}
		procs := make([]string, len(r.Queries))
		for i, q := range r.Queries {
			if q == "" {
				procs[i] = "-"
			} else {
				procs[i] = q
			}
		}
		t.AddRow(r.Phase, start, phaseKind(r.Queries), strings.Join(procs, " "),
			100*float64(bd.Busy)/float64(whole),
			100*float64(bd.MSync)/float64(whole),
			100*float64(bd.MemTotal())/float64(whole),
			r.Report.MaxClock())
	}
	return t
}

// StreamMissTable renders per-phase secondary-cache misses by structure
// group, normalized so phase 0's total is 100 — Figure 12's convention,
// extended along the stream so warm-state reuse shows as rows below
// 100.
func StreamMissTable(res []StreamPhaseResult) *stats.Table {
	t := &stats.Table{Header: []string{"Phase", "Priv", "Data", "Index", "Metadata", "Total"}}
	base := uint64(1)
	if len(res) > 0 {
		if b := groupTotal(res[0].Report.Machine.L2Misses.ByGroup()); b > 0 {
			base = b
		}
	}
	for _, r := range res {
		g := r.Report.Machine.L2Misses.ByGroup()
		t.AddRow(r.Phase,
			100*float64(g[simm.GroupPriv])/float64(base),
			100*float64(g[simm.GroupData])/float64(base),
			100*float64(g[simm.GroupIndex])/float64(base),
			100*float64(g[simm.GroupMetadata])/float64(base),
			100*float64(groupTotal(g))/float64(base))
	}
	return t
}
