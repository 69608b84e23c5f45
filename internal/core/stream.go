package core

import (
	"context"
	"fmt"

	"repro/internal/machine"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// Multi-phase query streams: a workload is a sequence of phases, each
// an ordered per-processor list of query runs (reads and UF1/UF2
// updates freely interleaved). Cache, buffer-pool, and lock-manager
// state carry across phases; a Flush phase starts from cold caches.
// Every phase is measured independently (counters and clocks reset at
// each boundary), so one stream yields one report per phase — the
// paper's one-shot runs are the single-phase, single-run degenerate
// case.

// StreamPhase is one phase of a stream workload: Runs[i] is processor
// i's ordered run list (missing or empty lists idle the processor).
// Flush starts the phase from cold caches; otherwise the phase runs on
// whatever state the previous phase left behind.
type StreamPhase struct {
	Flush bool
	Runs  [][]QueryRun
}

// StreamPhasesFromSpec lowers scenario phases into the executor's
// form.
func StreamPhasesFromSpec(phases []scenario.Phase) []StreamPhase {
	out := make([]StreamPhase, len(phases))
	for k, ph := range phases {
		runs := make([][]QueryRun, len(ph.Runs))
		for i, list := range ph.Runs {
			rl := make([]QueryRun, len(list))
			for j, r := range list {
				rl[j] = QueryRun{Query: r.Query, Variant: r.Variant}
			}
			runs[i] = rl
		}
		out[k] = StreamPhase{Flush: ph.Flush, Runs: runs}
	}
	return out
}

// runPhase executes one phase's run lists against the current machine
// state and returns the phase report plus per-run row counts indexed
// [processor][run]. Phases of read-only queries take the same
// record-pure capture + self-replay fast path as RunQueries; phases
// containing updates (or with observers attached) run live. When
// record is set the phase's streams (captured record-pure, or recorded
// during the live run) are returned instead of being recycled.
func (s *System) runPhase(runLists [][]QueryRun, record bool) (*Report, [][]int, []trace.Stream) {
	n := s.Mem.Nodes()
	rows := make([][]int, n)
	for i := 0; i < n; i++ {
		if i < len(runLists) {
			rows[i] = make([]int, len(runLists[i]))
		}
	}
	rep := &Report{}
	bodies := s.phaseBodies(runLists, rep, func(proc, run int) *int { return &rows[proc][run] })
	var streams []trace.Stream
	if s.phaseReplayable(runLists) {
		snap := s.snapshotLockState()
		rec := s.recordPure(bodies)
		snap.restore(s.Mem)
		streams = rec.Streams()
		src := &trace.QueryTrace{Nodes: n, Streams: streams}
		if err := replayStreams(s.Eng, s.LockMgr, src, &s.decode); err != nil {
			panic(fmt.Sprintf("core: replaying just-captured phase: %v", err))
		}
		if !record {
			// The capture is dead (its cursors ended with the replay).
			trace.ReleaseStreams(streams)
			streams = nil
		}
	} else {
		var rec *trace.Recorder
		if record {
			rec = trace.NewRecorder(n)
			s.Eng.Recorder = rec
			s.LockMgr.Tracer = lockTracer{rec: rec}
		}
		WithStage("live", func(context.Context) { s.Eng.Run(bodies) })
		if record {
			s.Eng.Recorder = nil
			s.LockMgr.Tracer = nil
			streams = rec.Streams()
		}
	}
	rep.Rows = make([]int, n)
	for i := range rows {
		for _, v := range rows[i] {
			rep.Rows[i] += v
		}
	}
	s.finishReport(rep)
	return rep, rows, streams
}

// startPhase applies the phase-boundary state policy: a Flush phase
// starts cold; otherwise only the measurement resets and cache/buffer
// state carries over.
func (s *System) startPhase(ph StreamPhase) {
	if ph.Flush {
		s.ColdStart()
	} else {
		s.ResetMeasurement()
	}
}

// RunStream executes the phases in order, carrying machine state across
// unflushed boundaries, and returns one report per phase.
func (s *System) RunStream(phases []StreamPhase) []*Report {
	reps := make([]*Report, len(phases))
	for k, ph := range phases {
		s.startPhase(ph)
		reps[k], _, _ = s.runPhase(ph.Runs, false)
	}
	return reps
}

// RunStreamRecorded is RunStream with per-phase trace capture: the
// reports are byte-identical to an unrecorded RunStream, and each
// phase's reference streams become one trace segment (assemble them
// with StreamTrace). Read-only phases are captured record-pure and
// their reports derived by one replay; phases with updates record
// during the live run.
func (s *System) RunStreamRecorded(phases []StreamPhase) ([]*Report, []trace.Segment) {
	reps := make([]*Report, len(phases))
	segs := make([]trace.Segment, len(phases))
	for k, ph := range phases {
		s.startPhase(ph)
		rep, _, streams := s.runPhase(ph.Runs, true)
		reps[k] = rep
		segs[k] = trace.Segment{
			Queries: append([]string(nil), rep.Queries...),
			Flush:   ph.Flush,
			Rows:    append([]int(nil), rep.Rows...),
			Streams: streams,
		}
	}
	return reps, segs
}

// StreamTrace assembles the portable segmented trace for a stream just
// recorded on this system.
func (s *System) StreamTrace(segs []trace.Segment) *trace.QueryTrace {
	return &trace.QueryTrace{
		Query: "stream",
		Scale: s.Cfg.DB.ScaleFactor,
		Seed:  s.Cfg.DB.Seed,
		Nodes: s.Mem.Nodes(),

		BusyPerAccess: s.Cfg.Sched.BusyPerAccess,
		SpinBackoff:   s.Cfg.Sched.SpinBackoff,
		LockCap:       s.LockMgr.TableCap(),

		Layout:   s.Mem.Layout(),
		Segments: segs,
	}
}

// StreamRunAnswer is one stream run's identity and result-row count.
type StreamRunAnswer struct {
	Proc    int
	Query   string
	Variant uint64
	Rows    int
}

// RunStreamAnswers executes the phases and returns, per phase, every
// run's row count in processor-then-run order — the result-inspection
// analogue of RunStream for CLI output.
func (s *System) RunStreamAnswers(phases []StreamPhase) [][]StreamRunAnswer {
	out := make([][]StreamRunAnswer, len(phases))
	for k, ph := range phases {
		s.startPhase(ph)
		_, rows, _ := s.runPhase(ph.Runs, false)
		var ans []StreamRunAnswer
		for i, list := range ph.Runs {
			for j, r := range list {
				if r.Query == "" {
					continue
				}
				ans = append(ans, StreamRunAnswer{Proc: i, Query: r.Query, Variant: r.Variant, Rows: rows[i][j]})
			}
		}
		out[k] = ans
	}
	return out
}

// ReplayStream replays a recorded stream trace segment by segment under
// the given machine configuration on a reconstructed skeleton system,
// returning one report per segment. Machine state carries across
// segments exactly as RunStream carries it across phases: flushed
// segments start cold, and every segment's counters and clocks reset at
// its boundary. Unsegmented traces replay as their own single flushed
// segment, so ReplayStream(tr, cfg) generalizes ReplayTrace.
func ReplayStream(src trace.StreamSource, mcfg machine.Config) ([]*Report, error) {
	return replaySkeleton(src, mcfg, nil)
}
