package runner

import (
	"context"
	"fmt"

	"repro/internal/blobstore"
	"repro/internal/core"
	"repro/internal/scenario"
)

// SystemFactory builds a simulated system for a job. The default factory
// assembles the paper's core.System; tests substitute lightweight fakes.
type SystemFactory func(scenario.Scenario) (*core.System, error)

// defaultFactory builds the real thing: the system the job's scenario
// spec describes. Database generation is the profiler's stage=build.
func defaultFactory(sc scenario.Scenario) (s *core.System, err error) {
	core.WithStage("build", func(context.Context) { s, err = core.NewScenarioSystem(sc) })
	return s, err
}

// Ctx is the execution context handed to a job Body. Its System method
// is lazy: bodies that never call it (pure bookkeeping jobs, tests)
// never pay for database generation.
type Ctx struct {
	pool *Pool
	rec  *jobRec
	w    *worker
}

// Job returns the job being executed.
func (c *Ctx) Job() *Job { return c.rec.job }

// Key returns the job's content-addressed cache key ("" for NoCache
// jobs) — the same key the result cache and trace store file under.
func (c *Ctx) Key() string { return c.rec.key }

// After returns the result of the job's i-th After dependency. By the
// time a body runs every dependency has settled successfully (a failed
// dependency fails the job before it starts), so this only errors on a
// bad index or a dependency that finished without a result (an
// Ephemeral job skipped because its other dependents were cached).
func (c *Ctx) After(i int) (interface{}, error) {
	if i < 0 || i >= len(c.rec.deps) {
		return nil, fmt.Errorf("runner: job %q has %d dependencies, not %d",
			c.rec.job.Name, len(c.rec.deps), i+1)
	}
	d := c.rec.deps[i]
	c.pool.mu.Lock()
	res, st := d.result, d.state
	c.pool.mu.Unlock()
	if st != Done && st != Cached {
		return nil, fmt.Errorf("runner: dependency %q of %q settled %s with no result",
			d.job.Name, c.rec.job.Name, st)
	}
	return res, nil
}

// TraceReader opens the trace-store blob filed under this job's key for
// chunk-granular streaming, if the pool has a trace directory and the
// blob exists. The caller owns the reader and must Close it. Content
// integrity is the decoder's job: a damaged blob fails to open as a
// trace, which callers treat as a miss.
func (c *Ctx) TraceReader() (blobstore.Reader, bool) {
	return c.pool.traces.getReader(c.rec.key)
}

// TraceReaderFor opens the trace-store blob filed under another job's
// key — replay jobs stream their capture dependency's blob this way.
func (c *Ctx) TraceReaderFor(key string) (blobstore.Reader, bool) {
	return c.pool.traces.getReader(key)
}

// HasTraceStore reports whether the pool has a trace store (-trace-dir
// or an injected blobstore.Store). Without one every lookup misses and
// every put is dropped, so nothing can ever read a recording back: a
// job may skip recording what only the store could have served.
func (c *Ctx) HasTraceStore() bool { return c.pool.traces.store != nil }

// PutTraceBlob files a trace blob under this job's key in the trace
// store and reports whether it landed (false without a trace
// directory, or on a write failure).
func (c *Ctx) PutTraceBlob(b []byte) bool {
	return c.pool.traces.put(c.rec.key, b)
}

// System returns the simulated system for this job.
//
// Stateless jobs (empty StateKey) receive a freshly constructed system:
// a simulation's timing depends on the system's entire run history (a
// previous query leaves the database's buffer pool and lock tables in a
// different state), so sharing systems between unrelated jobs would
// make results depend on which worker ran what first. Building each
// measurement from a pristine system makes every result a pure function
// of the job's identity fields — the property that lets the cache
// deduplicate and lets any worker count produce byte-identical output.
//
// StateKey jobs receive the shared system registered under that key,
// creating it from this job's Spec on first use; its caches and
// measurement state carry over between the jobs that share it, which
// are serialized by their dependency edges.
func (c *Ctx) System() (*core.System, error) {
	if c.rec.stateKey != "" {
		return c.pool.sharedSystem(c.rec)
	}
	return c.pool.factory(c.rec.job.Spec)
}

// worker is one pool worker.
type worker struct {
	id int
}

// sharedSystem returns (creating on first use) the system registered
// under the record's batch-scoped state key. Jobs sharing a key are
// serialized by their dependency edges, so at most one of them executes
// at a time; the map lock guards only the lookup and insert, never the
// (slow) factory call, so a system build cannot stall unrelated
// workers.
func (p *Pool) sharedSystem(rec *jobRec) (*core.System, error) {
	p.sharedMu.Lock()
	s, ok := p.shared[rec.stateKey]
	p.sharedMu.Unlock()
	if ok {
		return s, nil
	}
	s, err := p.factory(rec.job.Spec)
	if err != nil {
		return nil, err
	}
	p.sharedMu.Lock()
	p.shared[rec.stateKey] = s
	p.sharedMu.Unlock()
	return s, nil
}

// stateRef / stateUnref track how many live jobs name each StateKey so
// the shared system can be freed as soon as the last one finishes.
func (p *Pool) stateRef(key string) {
	p.sharedMu.Lock()
	p.stateRefs[key]++
	p.sharedMu.Unlock()
}

func (p *Pool) stateUnref(key string) {
	p.sharedMu.Lock()
	if p.stateRefs[key]--; p.stateRefs[key] <= 0 {
		delete(p.stateRefs, key)
		delete(p.shared, key)
	}
	p.sharedMu.Unlock()
}
