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
// bad index.
func (c *Ctx) After(i int) (interface{}, error) {
	if i < 0 || i >= len(c.rec.deps) {
		return nil, fmt.Errorf("runner: job %q has %d dependencies, not %d",
			c.rec.job.Name, len(c.rec.deps), i+1)
	}
	c.pool.mu.Lock()
	defer c.pool.mu.Unlock()
	return c.rec.deps[i].result, nil
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

// System builds a fresh simulated system from the job's Spec; every
// call builds another. A simulation's timing depends on the system's
// entire run history (a previous query leaves the database's buffer
// pool and lock tables in a different state), so sharing systems
// between jobs would make results depend on which worker ran what
// first. Building each measurement from a pristine system makes every
// result a pure function of the job's identity fields — the property
// that lets the cache deduplicate and lets any worker count produce
// byte-identical output. A measurement that needs history (a warmed
// cache, a stream's earlier phases) runs all of it in its one body.
func (c *Ctx) System() (*core.System, error) {
	return c.pool.factory(c.rec.job.Spec)
}

// worker is one pool worker.
type worker struct {
	id int
}
