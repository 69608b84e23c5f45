package core

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/pg/lockmgr"
	"repro/internal/sched"
	"repro/internal/simm"
	"repro/internal/trace"
)

// WithStage runs f under the pprof label stage=<stage>, so a -cpuprofile
// attributes host CPU per pipeline stage ("stage" ∈ build, capture,
// live, decode, replay, marshal — `make profile` renders this): build is
// database generation, capture a record-pure run, live an update phase
// (or any observed run) on the goroutine scheduler, marshal the blob
// encoding. A replay is labelled stage=replay, and each batch decode
// inside it relabels the driver goroutine stage=decode for the duration
// of the call (see syncSource). Goroutines started inside f inherit the
// label, which is how a live run's processor goroutines are covered.
func WithStage(stage string, f func(context.Context)) {
	pprof.Do(context.Background(), pprof.Labels("stage", stage), f)
}

// Record-once/replay-many: a cold query run's reference stream depends
// on (query, scale, seed) but not on cache geometry, so the sweep
// experiments capture one baseline execution per query and re-derive
// every other configuration's report by replaying the recorded streams
// through the unchanged sched/machine timing model. Synchronization
// (spinlocks, lock-manager operations) is recorded symbolically and
// re-executed live — its raw traffic depends on cross-processor timing
// and must re-emerge per configuration rather than replay verbatim.

// lockTracer adapts the capture recorder to the lock manager's Tracer.
type lockTracer struct{ rec *trace.Recorder }

func (t lockTracer) BeginOp(p *sched.Proc, acquire bool, tag lockmgr.Tag, mode lockmgr.Mode) {
	t.rec.BeginLockOp(p.ID(), acquire, tag.RelID, uint8(tag.Level), tag.Page, uint8(mode))
}

func (t lockTracer) EndOp(p *sched.Proc) { t.rec.EndLockOp(p.ID()) }

// phaseReplayable reports whether one phase's per-processor run lists
// can take the record-pure capture + flat-replay path: every non-empty
// run must be a read-only query (updates mutate shared state, so their
// reference streams depend on the interleaving), and no external
// observer may be attached (a Tracer or Recorder expects to see the
// live run).
func (s *System) phaseReplayable(runLists [][]QueryRun) bool {
	if s.Eng.Tracer != nil || s.Eng.Recorder != nil || s.LockMgr.Tracer != nil {
		return false
	}
	any := false
	for _, list := range runLists {
		for _, r := range list {
			switch r.Query {
			case "":
			case "UF1", "UF2":
				return false
			default:
				any = true
			}
		}
	}
	return any
}

// lockStateSnapshot holds the raw bytes of the lock-manager regions.
// A record-pure capture executes lock operations for real, and the
// open-addressing tables' byte layout is history-dependent (tombstone
// placement), so the capture pass is rolled back before the replay
// re-executes the same operations — the replay must mutate exactly the
// state a live run would have, or the *next* run's probe traffic
// diverges.
type lockStateSnapshot struct {
	regions []*simm.Region
	bytes   [][]byte
}

var lockRegionNames = []string{"LockHash", "XidHash", "LockMgrLock"}

func (s *System) snapshotLockState() lockStateSnapshot {
	var snap lockStateSnapshot
	for _, name := range lockRegionNames {
		r := s.Mem.RegionByName(name)
		if r == nil {
			continue
		}
		buf := s.Mem.LoadBytes(r.Base, make([]byte, r.Size), int(r.Size))
		snap.regions = append(snap.regions, r)
		snap.bytes = append(snap.bytes, buf)
	}
	return snap
}

func (snap *lockStateSnapshot) restore(mem *simm.Memory) {
	for i, r := range snap.regions {
		mem.StoreBytes(r.Base, snap.bytes[i])
	}
}

// recordPure captures the bodies' reference streams without timing:
// with the engine in record-pure mode clocks never advance, so the
// sorted-ring scheduler degenerates to sequential execution with zero
// goroutine handoffs, and the accessors skip the timing model entirely.
// The streams are what a live recording would produce — for replayable
// (read-only) workloads the reference stream is interleaving-invariant,
// the contract the sweep equivalence tests pin down.
func (s *System) recordPure(bodies []func(*sched.Proc)) *trace.Recorder {
	rec := trace.NewRecorder(s.Mem.Nodes())
	s.Eng.Recorder, s.Eng.RecordPure = rec, true
	s.LockMgr.Tracer = lockTracer{rec: rec}
	defer func() {
		s.Eng.Recorder, s.Eng.RecordPure = nil, false
		s.LockMgr.Tracer = nil
	}()
	WithStage("capture", func(context.Context) { s.Eng.Run(bodies) })
	return rec
}

// RunColdRecorded is RunCold with trace capture: it returns the run's
// report (byte-identical to an unrecorded run — observation does not
// perturb the simulation) plus the recorded trace. It is the one-phase
// case of the stream executor's capture (see runPhase): read-only
// queries are captured record-pure and the report derived by one replay;
// updates record during a live run.
func (s *System) RunColdRecorded(query string) (*Report, *trace.QueryTrace) {
	s.ColdStart()
	rep, _, streams := s.runPhase(singleRunLists(s.SameQueryAllProcs(query)), true)
	return rep, s.queryTrace(query, rep.Rows, streams)
}

// queryTrace assembles the portable trace for a just-recorded run.
func (s *System) queryTrace(query string, rows []int, streams []trace.Stream) *trace.QueryTrace {
	return &trace.QueryTrace{
		Query: query,
		Scale: s.Cfg.DB.ScaleFactor,
		Seed:  s.Cfg.DB.Seed,
		Nodes: s.Mem.Nodes(),

		BusyPerAccess: s.Cfg.Sched.BusyPerAccess,
		SpinBackoff:   s.Cfg.Sched.SpinBackoff,
		LockCap:       s.LockMgr.TableCap(),

		Layout:  s.Mem.Layout(),
		Rows:    append([]int(nil), rows...),
		Streams: streams,
	}
}

// replayBatch is the replay's unit of decode: events per batch. A 64KB
// chunk of typical 2-3-byte ref events decodes to ~2.5 batches.
const replayBatch = 8192

// Skeleton-arena reuse counters (package-wide, atomic), surfaced as
// gauges by the experiments layer.
var (
	arenaHits   atomic.Uint64
	arenaMisses atomic.Uint64
)

// ReplayStats is a snapshot of the skeleton-arena counters.
type ReplayStats struct {
	ArenaHits   uint64
	ArenaMisses uint64
}

// ReadReplayStats returns the process-wide skeleton-arena counters.
func ReadReplayStats() ReplayStats {
	return ReplayStats{ArenaHits: arenaHits.Load(), ArenaMisses: arenaMisses.Load()}
}

// decodeInto fills out with the cursor's next batch in the engine's
// replay form: data references and busy time decode directly (the
// fused fast path inside DecodeReplayBatch), spin acquire/release stay
// symbolic (the driver re-spins them live), and lock-manager operations
// become closures the driver runs as real code against the replay's
// lock state.
func decodeInto(cur *trace.Cursor, lm *lockmgr.Manager, out []sched.ReplayEvent) (int, error) {
	return cur.DecodeReplayBatch(out, func(acquire bool, relID uint32, level uint8, page uint32, mode uint8) func(*sched.Proc) {
		tag := lockmgr.Tag{RelID: relID, Level: lockmgr.Level(level), Page: page}
		m := lockmgr.Mode(mode)
		if acquire {
			return func(p *sched.Proc) { lm.Acquire(p, p.ID(), tag, m) }
		}
		return func(p *sched.Proc) { lm.Release(p, p.ID(), tag, m) }
	})
}

// decodeBufs holds one replayBatch-event decode buffer per processor.
// They belong to whoever owns the replaying engine — a pooled skeleton,
// or a System for its self-replays — so consecutive replays decode into
// the same buffers instead of allocating 4 x 384 KB per segment.
type decodeBufs [][]sched.ReplayEvent

func (b *decodeBufs) proc(i int) []sched.ReplayEvent {
	for len(*b) <= i {
		*b = append(*b, make([]sched.ReplayEvent, replayBatch))
	}
	return (*b)[i]
}

// syncSource decodes inline on the driver goroutine, batch-at-a-time
// into out, under the decode label; replay is the label to restore once
// the batch is decoded.
func syncSource(cur *trace.Cursor, lm *lockmgr.Manager, out []sched.ReplayEvent, replay, decode context.Context) sched.ReplaySource {
	var perr error
	return func() ([]sched.ReplayEvent, error) {
		if perr != nil {
			return nil, perr
		}
		pprof.SetGoroutineLabels(decode)
		n, err := decodeInto(cur, lm, out)
		pprof.SetGoroutineLabels(replay)
		if n == 0 {
			return nil, err
		}
		perr = err // deliver the decoded prefix first, surface err next call
		return out[:n], nil
	}
}

// batchSources builds one replay source per processor over src's
// streams, decoding into bufs.
func batchSources(src trace.Source, lm *lockmgr.Manager, bufs *decodeBufs, replay context.Context) []sched.ReplaySource {
	decode := pprof.WithLabels(replay, pprof.Labels("stage", "decode"))
	srcs := make([]sched.ReplaySource, src.Meta().Nodes)
	for i := range srcs {
		srcs[i] = syncSource(src.StreamCursor(i), lm, bufs.proc(i), replay, decode)
	}
	return srcs
}

// replayStreams drives a flat replay of src's streams on eng, with lock
// operations re-executed against lm, continuing from the engine's
// current clocks and machine state.
func replayStreams(eng *sched.Engine, lm *lockmgr.Manager, src trace.Source, bufs *decodeBufs) error {
	var err error
	WithStage("replay", func(ctx context.Context) {
		err = eng.RunReplay(batchSources(src, lm, bufs, ctx))
	})
	return err
}

// replayOn drives a full replay on an engine whose machine and memory
// are already prepared (cold caches, zeroed/quiesced lock state).
func replayOn(eng *sched.Engine, lm *lockmgr.Manager, src trace.Source, bufs *decodeBufs) (*Report, error) {
	meta := src.Meta()
	rep := &Report{Rows: append([]int(nil), meta.Rows...)}
	for i := 0; i < meta.Nodes; i++ {
		// Phase segments carry per-processor labels; single-query
		// traces label every processor with the one query.
		if len(meta.ProcQueries) == meta.Nodes {
			rep.Queries = append(rep.Queries, meta.ProcQueries[i])
		} else {
			rep.Queries = append(rep.Queries, meta.Query)
		}
	}
	if err := replayStreams(eng, lm, src, bufs); err != nil {
		return nil, fmt.Errorf("core: replaying %s: %w", meta.Query, err)
	}
	for _, p := range eng.Procs() {
		rep.PerProc = append(rep.PerProc, p.Breakdown())
		rep.Clocks = append(rep.Clocks, p.Clock())
	}
	rep.Machine = *eng.Machine().Stats()
	return rep, nil
}

// replaySkeleton replays every segment of src under mcfg on a
// reconstructed skeleton system — the layout's regions and page
// categories without any data contents, arena-pooled and reset between
// replays of the same layout — and returns one report per segment.
// Machine state carries across segments exactly as RunStream carries it
// across phases: flushed segments start cold, and every segment's
// counters and clocks reset at its boundary. attach, when non-nil, runs
// once the skeleton is assembled and before the first segment replays.
func replaySkeleton(src trace.StreamSource, mcfg machine.Config, attach func(*sched.Engine, *simm.Memory)) ([]*Report, error) {
	n := src.NumSegments()
	if n < 1 {
		return nil, fmt.Errorf("core: replay of a %d-segment stream", n)
	}
	meta := src.Meta()
	if err := mcfg.Validate(); err != nil {
		return nil, err
	}
	if mcfg.Nodes != meta.Nodes {
		return nil, fmt.Errorf("core: trace recorded on %d nodes, config has %d", meta.Nodes, mcfg.Nodes)
	}
	sk, err := acquireSkeleton(meta.Layout)
	if err != nil {
		return nil, err
	}
	mach, err := machine.NewReusing(mcfg, sk.mem, sk.mach)
	if err != nil {
		return nil, err
	}
	sk.mach = mach
	scfg := sched.Config{BusyPerAccess: meta.BusyPerAccess, SpinBackoff: meta.SpinBackoff}
	eng := sched.New(scfg, sk.mem, mach)
	lm, err := lockmgr.Attach(sk.mem, meta.LockCap)
	if err != nil {
		return nil, err
	}
	if attach != nil {
		attach(eng, sk.mem)
	}
	reps := make([]*Report, n)
	for k := range reps {
		seg := src.Segment(k)
		if sm := seg.Meta(); len(sm.Streams) != meta.Nodes {
			return nil, fmt.Errorf("core: segment %d has %d streams for %d nodes", k, len(sm.Streams), meta.Nodes)
		}
		if src.SegmentFlush(k) {
			mach.Flush()
		}
		mach.ResetStats()
		eng.ResetBreakdowns()
		if reps[k], err = replayOn(eng, lm, seg, &sk.decode); err != nil {
			return nil, fmt.Errorf("core: segment %d: %w", k, err)
		}
	}
	releaseSkeleton(sk)
	return reps, nil
}

// ReplayTrace replays a recorded query under the given machine
// configuration on a skeleton system and returns the report a fresh
// execution of that configuration would produce. The replayed streams
// must come from the same (query, scale, seed); the configuration may
// vary in any way that leaves the reference stream invariant (cache
// geometry, prefetching, write buffering — not node count). src may be
// a decoded *trace.QueryTrace or a streaming *trace.Reader, and must be
// a single segment (stream traces replay through ReplayStream).
func ReplayTrace(src trace.StreamSource, mcfg machine.Config) (*Report, error) {
	return ReplayTraceWith(src, mcfg, nil)
}

// ReplayTraceWith is ReplayTrace with an attachment hook called after
// the skeleton is assembled and before the replay runs — the locality
// analyzer installs its Tracer this way to analyze a saved trace
// without re-running the executor.
func ReplayTraceWith(src trace.StreamSource, mcfg machine.Config, attach func(*sched.Engine, *simm.Memory)) (*Report, error) {
	if n := src.NumSegments(); n != 1 {
		return nil, fmt.Errorf("core: ReplayTrace of a %d-segment stream", n)
	}
	reps, err := replaySkeleton(src, mcfg, attach)
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// ReplayCold replays a recorded query on this system's current machine
// configuration, reusing the live address space and lock manager: the
// replay analogue of RunCold for the ablation sweeps, whose points
// share one system's history. The system's lock state must be
// quiescent (every completed run releases all locks), which replay then
// mutates exactly as the recorded run's operations do.
func (s *System) ReplayCold(tr *trace.QueryTrace) (*Report, error) {
	if tr.Nodes != s.Mem.Nodes() {
		return nil, fmt.Errorf("core: trace recorded on %d nodes, system has %d", tr.Nodes, s.Mem.Nodes())
	}
	if len(tr.Streams) != tr.Nodes {
		return nil, fmt.Errorf("core: trace has %d streams for %d nodes", len(tr.Streams), tr.Nodes)
	}
	s.ColdStart()
	return replayOn(s.Eng, s.LockMgr, tr, &s.decode)
}
