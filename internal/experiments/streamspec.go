package experiments

import (
	"context"
	"strings"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/simm"
	"repro/internal/stats"
)

// Phase workloads through the runner. A stream runs as one job on one
// system, start to finish: its phases share warm cache, buffer-pool and
// lock state, which no cache entry can hold, so splitting a stream into
// per-phase jobs would only re-execute earlier phases whenever a later
// one missed. A legacy warm pair (Figure 12) is the two-phase stream
// scenario.LegacyPhases lowers it to, and runs the same way. When the
// pool has a trace store the job records its phases as they run and
// spills the segmented trace under its own key; a later submission that
// misses the result cache but finds the blob replays every segment —
// no executor work. Without a store nothing could read the recording
// back, so the phases run unrecorded.

// StreamPhaseResult is one phase of a stream workload's measurement.
type StreamPhaseResult struct {
	Phase   int
	Flush   bool
	Queries []string // per-processor run labels ("" = idle, "+"-joined chains)
	Report  *core.Report
}

// phasesIdentity is a phase spec's job identity: Mode "phases" and the
// spec without its display name or sweep. phasesJob runs under it and
// ProgressKeys predicts keys from it, so the two cannot drift.
func phasesIdentity(sc scenario.Scenario) *runner.Job {
	sc.Name = ""
	sc.Sweep = scenario.Sweep{}
	return &runner.Job{Mode: "phases", Spec: sc}
}

// phasesJob runs a validated phase workload as one job whose result is
// one report per phase ([]*core.Report). The body replays a blob filed
// under its own key when one is there; otherwise it executes the stream
// on a fresh system, recording it for the trace store when the pool has
// one.
func (e *Exec) phasesJob(name string, sc scenario.Scenario) *runner.Job {
	job := phasesIdentity(sc)
	job.Name = name
	phases := core.StreamPhasesFromSpec(sc.Workload.Phases)
	mcfg := sc.Machine.MachineConfig()
	job.Body = func(c *runner.Ctx) (interface{}, error) {
		if rd, ok := c.TraceReader(); ok {
			if reps, err := e.replayStored(rd, mcfg, len(phases)); err == nil {
				return reps, nil
			}
			// Damaged or mismatched blob: fall through to executing,
			// which re-records and re-spills a good one.
		}
		s, err := c.System()
		if err != nil {
			return nil, err
		}
		if !c.HasTraceStore() {
			return s.RunStream(phases), nil
		}
		reps, segs := s.RunStreamRecorded(phases)
		c.PutTraceBlob(e.encodeCapture(s.StreamTrace(segs)))
		return reps, nil
	}
	return job
}

// runStreamSpec executes a phase workload and collects one result per
// phase, in phase order.
func (e *Exec) runStreamSpec(sc scenario.Scenario) ([]StreamPhaseResult, error) {
	raw, err := e.pool.RunAll(context.Background(), []*runner.Job{e.phasesJob("stream", sc)})
	if err != nil {
		return nil, err
	}
	reps := raw[0].([]*core.Report)
	out := make([]StreamPhaseResult, len(reps))
	for k, rep := range reps {
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
