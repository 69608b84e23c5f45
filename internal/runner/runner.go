// Package runner is the experiment-execution subsystem: it turns the
// simulation runs behind the paper's tables and figures into
// schedulable jobs and executes them on a worker pool.
//
// Every sweep point of the evaluation (Figures 8-13) constructs its own
// simulated system and is embarrassingly parallel; the runner exploits
// that with a pool of workers (sized by GOMAXPROCS by default) fed from
// a dependents-first ready queue with dependency tracking — a sweep's
// replays depend on the capture whose trace they replay, so captures run
// first. One job, one system: every job that simulates builds its own,
// and history a measurement needs (a warmed cache, a stream's earlier
// phases) runs inside that one job's body. A content-addressed result
// cache keyed by the canonical hash of (mode, database options, machine
// configuration, query list) satisfies
// repeated submissions from memory (optionally disk) instead of
// re-simulating, so `dssmem -exp all` computes each distinct
// configuration once no matter how many figures reference it. The pool
// keeps per-job timing bookkeeping, publishes a progress event
// stream, and drains gracefully on shutdown.
//
// Simulation results are deterministic functions of a job's identity
// fields, so any worker count yields identical results; callers
// reassemble output in submission order (RunAll) to keep rendered
// tables byte-identical regardless of execution interleaving.
package runner

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/blobstore"
	"repro/internal/metrics"
)

// ErrShutdown is reported by jobs cancelled because the pool shut down
// before they could run, and by submissions after shutdown began.
var ErrShutdown = errors.New("runner: pool shut down")

// Config parameterizes a Pool.
type Config struct {
	// Workers is the worker-pool size; <= 0 means GOMAXPROCS. Each busy
	// worker builds one simulated system, so memory scales with Workers.
	Workers int
	// CacheDir, when non-empty, backs the result cache with a directory
	// of gob files that survive process restarts.
	CacheDir string
	// TraceDir, when non-empty, spills captured reference-trace blobs to
	// a directory of content-addressed .trace files — a cache tier below
	// the result cache: a capture job whose result is gone but whose
	// trace survives regenerates its report by replay instead of
	// re-executing. Blobs carry their own checksum, so damaged files
	// read as misses.
	TraceDir string
	// Blobs, when non-nil, backs both persistent tiers (the result
	// cache's disk tier under blobstore.NSResult, the trace store under
	// blobstore.NSTrace) with the given store instead of CacheDir /
	// TraceDir, which are then ignored. This is how a pool joins a
	// shared cache namespace: hand every peer's pool the same store (or
	// a blobstore.Fan over peers) and their content-addressed keys
	// resolve across processes.
	Blobs blobstore.Store
	// Metrics, when non-nil, receives the pool's instrumentation
	// (job/queue/cache-tier families under dssmem_runner_* and
	// dssmem_cache_*). Nil disables observability at zero cost — see
	// internal/metrics for the nil no-op contract.
	Metrics *metrics.Registry
	// Factory overrides system construction (tests).
	Factory SystemFactory
}

// Pool schedules and executes jobs.
type Pool struct {
	factory SystemFactory
	cache   *resultCache
	traces  *traceStore
	hub     progressHub
	start   time.Time
	met     poolMetrics

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[JobID]*jobRec
	ready    readyHeap
	nextID   JobID
	closed   bool // no new submissions; workers exit when queue empties
	wg       sync.WaitGroup
	nworkers int

	// Counters (guarded by mu).
	submitted   int64
	completed   int64
	failed      int64
	cacheHits   int64
	cacheMisses int64
	running     int
	busy        time.Duration
}

// New starts a pool with cfg.Workers workers.
func New(cfg Config) *Pool {
	n := cfg.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	factory := cfg.Factory
	if factory == nil {
		factory = defaultFactory
	}
	met := newPoolMetrics(cfg.Metrics)
	rstore, tstore := cfg.Blobs, cfg.Blobs
	if cfg.Blobs == nil {
		// Legacy directory configuration: each tier becomes its own
		// LocalDir mount with the historical layout. A directory that
		// cannot be created degrades that tier to disabled, exactly as
		// before; callers wanting a hard failure probe with
		// ValidateCacheDir first.
		if cfg.CacheDir != "" {
			ld := blobstore.NewLocalDir()
			if ld.Mount(blobstore.NSResult, cfg.CacheDir, ".gob") == nil {
				rstore = ld
			}
		}
		if cfg.TraceDir != "" {
			ld := blobstore.NewLocalDir()
			if ld.Mount(blobstore.NSTrace, cfg.TraceDir, ".trace") == nil {
				tstore = ld
			}
		}
	}
	p := &Pool{
		factory:  factory,
		cache:    newResultCache(rstore, met.cacheMetrics()),
		traces:   newTraceStore(tstore, met.traceMetrics()),
		start:    time.Now(),
		met:      met,
		jobs:     make(map[JobID]*jobRec),
		nextID:   1,
		nworkers: n,
	}
	p.cond = sync.NewCond(&p.mu)
	p.met.workers.Set(float64(n))
	cfg.Metrics.GaugeFunc("dssmem_cache_entries",
		"In-memory result-cache entries.", func() float64 { return float64(p.cache.size()) })
	cfg.Metrics.GaugeFunc("dssmem_trace_store_bytes",
		"Bytes of trace blobs this process wrote to the trace store.",
		func() float64 { return float64(p.traces.stats().Bytes) })
	for i := 0; i < n; i++ {
		w := &worker{id: i}
		p.wg.Add(1)
		go p.runWorker(w)
	}
	return p
}

// SubmitAll submits a batch of jobs and returns their IDs in batch
// order. Dependencies (Job.After) must point at jobs of the same batch.
// Cacheable jobs whose key is already in the result cache resolve
// immediately without running.
func (p *Pool) SubmitAll(jobs []*Job) ([]JobID, error) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrShutdown
	}

	recs := make([]*jobRec, len(jobs))
	byJob := make(map[*Job]*jobRec, len(jobs))
	ids := make([]JobID, len(jobs))
	for i, j := range jobs {
		if j == nil || j.Body == nil {
			return nil, fmt.Errorf("runner: job %d (%q) has no body", i, jobName(j))
		}
		if _, dup := byJob[j]; dup {
			return nil, fmt.Errorf("runner: job %q submitted twice in one batch", j.Name)
		}
		rec := &jobRec{
			job: j, id: p.nextID, key: j.Key(),
			state: Pending, submitted: now, done: make(chan struct{}),
		}
		p.nextID++
		recs[i], byJob[j], ids[i] = rec, rec, rec.id
		p.jobs[rec.id] = rec
	}

	// Wire the dependency graph.
	for i, j := range jobs {
		for _, dep := range j.After {
			drec, ok := byJob[dep]
			if !ok {
				return nil, fmt.Errorf("runner: job %q depends on a job outside its batch", j.Name)
			}
			if drec == recs[i] {
				return nil, fmt.Errorf("runner: job %q depends on itself", j.Name)
			}
			drec.dependents = append(drec.dependents, recs[i])
			recs[i].deps = append(recs[i].deps, drec)
		}
	}

	// The batch is now structurally valid; account every job.
	p.submitted += int64(len(recs))
	p.met.jobsSubmitted.Add(float64(len(recs)))
	p.met.queueDepth.Add(float64(len(recs)))

	// Resolve cache hits before anything runs: a hit short-circuits the
	// job.
	for _, rec := range recs {
		if rec.key == "" {
			continue
		}
		if v, ok := p.cache.get(rec.key); ok {
			rec.result, rec.cacheHit = v, true
			p.settleLocked(rec, Cached)
		}
	}

	// Count unresolved dependencies and queue the ready ones. Counts are
	// recomputed from scratch: the cache-hit settles above already ran
	// releaseDependentsLocked, whose decrements predate any count.
	for i, rec := range recs {
		if rec.state != Pending {
			continue
		}
		rec.waiting = 0
		for _, dep := range jobs[i].After {
			if !byJob[dep].state.terminal() {
				rec.waiting++
			}
		}
		if rec.waiting == 0 {
			p.enqueueLocked(rec)
		}
	}
	p.cond.Broadcast()
	return ids, nil
}

// Submit submits a single independent job.
func (p *Pool) Submit(j *Job) (JobID, error) {
	ids, err := p.SubmitAll([]*Job{j})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// Wait blocks until every listed job reaches a terminal state (or ctx
// expires) and returns their results in argument order. The first job
// error encountered is returned.
func (p *Pool) Wait(ctx context.Context, ids ...JobID) ([]interface{}, error) {
	out := make([]interface{}, len(ids))
	for i, id := range ids {
		p.mu.Lock()
		rec, ok := p.jobs[id]
		p.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("runner: unknown job id %d", id)
		}
		select {
		case <-rec.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		p.mu.Lock()
		res, err := rec.result, rec.err
		p.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("runner: job %q: %w", rec.job.Name, err)
		}
		out[i] = res
	}
	return out, nil
}

// RunAll submits a batch and waits for it, returning results in
// submission order — the deterministic reassembly the experiment
// harnesses rely on for byte-identical output at any worker count.
func (p *Pool) RunAll(ctx context.Context, jobs []*Job) ([]interface{}, error) {
	ids, err := p.SubmitAll(jobs)
	if err != nil {
		return nil, err
	}
	return p.Wait(ctx, ids...)
}

// Info returns the bookkeeping snapshot for a job.
func (p *Pool) Info(id JobID) (Info, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rec, ok := p.jobs[id]
	if !ok {
		return Info{}, false
	}
	return rec.info(), true
}

// Shutdown stops accepting submissions, cancels jobs that have not
// started (they fail with ErrShutdown), drains the jobs already running
// on workers, and waits — up to ctx — for the workers to exit.
func (p *Pool) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		for len(p.ready) > 0 {
			rec := heap.Pop(&p.ready).(*jobRec)
			rec.err = ErrShutdown
			p.settleLocked(rec, Failed)
		}
		for _, rec := range p.jobs {
			if rec.state == Pending {
				rec.err = ErrShutdown
				p.settleLocked(rec, Failed)
			}
		}
		p.cond.Broadcast()
	}
	p.mu.Unlock()

	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close shuts the pool down, waiting indefinitely for running jobs.
func (p *Pool) Close() { p.Shutdown(context.Background()) }

// Stats is a snapshot of the pool's accounting.
type Stats struct {
	Workers int `json:"workers"`

	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`

	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheEntries int   `json:"cache_entries"`

	// Trace-store tier (zero when no TraceDir is configured).
	TraceHits   int64 `json:"trace_hits"`
	TraceMisses int64 `json:"trace_misses"`
	TraceWrites int64 `json:"trace_writes"`
	TraceBytes  int64 `json:"trace_bytes"`

	QueueDepth int `json:"queue_depth"` // ready + dependency-blocked jobs
	Running    int `json:"running"`

	BusySeconds   float64 `json:"busy_seconds"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Utilization   float64 `json:"utilization"` // busy / (workers * uptime)
}

// HitRate returns the cache hit fraction over all cacheable outcomes.
func (s Stats) HitRate() float64 {
	if s.CacheHits+s.CacheMisses == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.CacheHits+s.CacheMisses)
}

// Stats returns a snapshot of the pool's accounting.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	pendingBlocked := 0
	for _, rec := range p.jobs {
		if rec.state == Pending {
			pendingBlocked++
		}
	}
	up := time.Since(p.start)
	ts := p.traces.stats()
	s := Stats{
		Workers:   p.nworkers,
		Submitted: p.submitted, Completed: p.completed,
		Failed:    p.failed,
		CacheHits: p.cacheHits, CacheMisses: p.cacheMisses,
		CacheEntries: p.cache.size(),
		TraceHits:    ts.Hits, TraceMisses: ts.Misses,
		TraceWrites: ts.Writes, TraceBytes: ts.Bytes,
		QueueDepth:  len(p.ready) + pendingBlocked,
		Running:     p.running,
		BusySeconds: p.busy.Seconds(), UptimeSeconds: up.Seconds(),
	}
	if denom := float64(p.nworkers) * up.Seconds(); denom > 0 {
		s.Utilization = s.BusySeconds / denom
	}
	return s
}

// ---------------------------------------------------------------------
// Internals

// enqueueLocked moves a Pending job into the ready queue.
func (p *Pool) enqueueLocked(rec *jobRec) {
	rec.state = Ready
	heap.Push(&p.ready, rec)
	p.publish(Event{Kind: JobQueued, Job: rec.id, Name: rec.job.Name, State: Ready, Key: rec.key})
}

// settleLocked moves a job to a terminal state reached without running
// (Cached or Failed-before-start), releases its dependents, publishes
// its finished event and closes its done channel. Caller holds p.mu.
//
// The event goes out before done closes (here and in finish), so a
// caller whose Wait returned has already been sent every finished
// event of the jobs it waited on: a progress listener that cancels its
// subscription after Wait and then drains the channel counts them all.
func (p *Pool) settleLocked(rec *jobRec, st State) {
	rec.state = st
	rec.finished = time.Now()
	p.met.queueDepth.Dec() // settled jobs were Pending or Ready
	switch st {
	case Cached:
		p.cacheHits++
	case Failed:
		p.failed++
		p.met.jobsFailed.Inc()
	}
	p.releaseDependentsLocked(rec)
	p.publishFinished(rec)
	close(rec.done)
}

// releaseDependentsLocked propagates a terminal transition: successful
// outcomes decrement dependents' wait counts (queueing those that reach
// zero); failures cascade to dependents.
func (p *Pool) releaseDependentsLocked(rec *jobRec) {
	failed := rec.state == Failed
	for _, d := range rec.dependents {
		if d.state != Pending {
			continue
		}
		if failed {
			d.err = fmt.Errorf("runner: dependency %q failed: %w", rec.job.Name, rec.err)
			p.settleLocked(d, Failed)
			continue
		}
		if d.waiting--; d.waiting == 0 {
			p.enqueueLocked(d)
		}
	}
}

// runWorker is the worker loop: pop the first ready job, execute it,
// publish the outcome, repeat until shutdown empties the queue.
func (p *Pool) runWorker(w *worker) {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.ready) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.ready) == 0 {
			p.mu.Unlock()
			return
		}
		rec := heap.Pop(&p.ready).(*jobRec)
		rec.state = Running
		rec.started = time.Now()
		p.running++
		p.met.queueDepth.Dec()
		p.met.running.Inc()
		p.met.jobsStarted.Inc()
		p.mu.Unlock()

		p.publish(Event{Kind: JobStarted, Job: rec.id, Name: rec.job.Name, State: Running, Key: rec.key})
		p.execute(w, rec)
	}
}

// execute runs one job on a worker: re-probe the cache (another batch
// may have computed the result since submission), then run the body
// once — simulation jobs are deterministic, so a failed body would fail
// again — and record the outcome.
func (p *Pool) execute(w *worker, rec *jobRec) {
	if rec.key != "" {
		if v, ok := p.cache.get(rec.key); ok {
			p.finish(rec, v, nil, true, 0)
			return
		}
	}
	t0 := time.Now()
	res, err := p.runBody(w, rec)
	busy := time.Since(t0)
	if err == nil && rec.key != "" {
		p.cache.put(rec.key, res)
	}
	p.finish(rec, res, err, false, busy)
}

// runBody invokes the job body, converting panics into errors so one
// bad job cannot take down the pool.
func (p *Pool) runBody(w *worker, rec *jobRec) (res interface{}, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job panicked: %v", r)
		}
	}()
	return rec.job.Body(&Ctx{pool: p, rec: rec, w: w})
}

// finish records a running job's outcome and releases its dependents.
func (p *Pool) finish(rec *jobRec, res interface{}, err error, fromCache bool, busy time.Duration) {
	p.mu.Lock()
	rec.result, rec.err = res, err
	rec.finished = time.Now()
	p.running--
	p.busy += busy
	p.met.running.Dec()
	if !fromCache {
		p.met.busySeconds.Add(busy.Seconds())
		p.met.jobSeconds.Observe(busy.Seconds())
	}
	switch {
	case fromCache:
		rec.cacheHit = true
		rec.state = Cached
		p.cacheHits++
	case err != nil:
		rec.state = Failed
		p.failed++
		p.met.jobsFailed.Inc()
	default:
		rec.state = Done
		p.completed++
		p.met.jobsCompleted.Inc()
		if rec.key != "" {
			p.cacheMisses++
		}
	}
	p.releaseDependentsLocked(rec)
	p.publishFinished(rec)
	close(rec.done)
	p.cond.Broadcast()
	p.mu.Unlock()
}

func jobName(j *Job) string {
	if j == nil {
		return "<nil>"
	}
	return j.Name
}
