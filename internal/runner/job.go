package runner

import (
	"time"

	"repro/internal/scenario"
)

// JobID identifies a submitted job within its Pool. IDs are assigned in
// submission order and break ties in the ready queue, so ready jobs with
// equally many dependents execute FIFO.
type JobID int64

// Job is one schedulable unit of simulation work.
//
// The Spec/Mode/Extra fields are the job's identity: the pool derives
// the content-addressed cache key from them (see Key), so they must
// fully determine the Body's result. Body receives a Ctx whose System
// method lazily provides a *core.System built from Spec; bodies that
// never call it never pay for database generation.
type Job struct {
	// Name labels the job in events, errors, and bookkeeping.
	Name string
	// Mode discriminates otherwise-identical cache keys between job
	// families ("capture", "cold", "phases", "table1", ...).
	Mode string
	// Spec is the scenario the job measures: machine, workload (scale,
	// seed, query list), and — for sweep-expanding callers — the axis.
	// Its canonical encoding is the bulk of the cache-key material.
	Spec scenario.Scenario
	// Extra is additional cache-key material for parameters not covered
	// by the spec.
	Extra []string

	// After lists jobs of the same SubmitAll batch that must reach a
	// terminal state before this job may start, and whose results the
	// body reads through Ctx.After (a sweep's replays hang off the
	// capture whose recorded trace they replay). Dependencies share
	// results, never systems: history a measurement needs runs inside
	// one body.
	After []*Job

	// NoCache exempts the job from result caching.
	NoCache bool

	// Body computes the job's result.
	Body func(*Ctx) (interface{}, error)
}

// State is a job's lifecycle position.
type State int

const (
	// Pending jobs wait on After dependencies.
	Pending State = iota
	// Ready jobs sit in the ready queue.
	Ready
	// Running jobs occupy a worker.
	Running
	// Done jobs completed their Body successfully.
	Done
	// Failed jobs returned an error, lost a dependency, or were
	// cancelled by shutdown.
	Failed
	// Cached jobs were resolved from the result cache without running.
	Cached
)

var stateNames = [...]string{"pending", "ready", "running", "done", "failed", "cached"}

func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return "invalid"
	}
	return stateNames[s]
}

// terminal reports whether the state is final.
func (s State) terminal() bool { return s == Done || s == Failed || s == Cached }

// Info is the pool's bookkeeping snapshot for one job.
type Info struct {
	ID       JobID
	Name     string
	State    State
	CacheHit bool

	Submitted time.Time
	Started   time.Time
	Finished  time.Time

	Err error
}

// Duration returns how long the job ran (zero until it finishes).
func (i Info) Duration() time.Duration {
	if i.Finished.IsZero() || i.Started.IsZero() {
		return 0
	}
	return i.Finished.Sub(i.Started)
}

// jobRec is the pool-internal record of a submitted job.
type jobRec struct {
	job *Job
	id  JobID
	key string // cache key, "" when NoCache

	// deps mirrors Job.After in order (wired at submission, then
	// read-only); Ctx.After serves dependency results from it.
	deps []*jobRec

	// All fields below are guarded by the pool mutex.
	state      State
	waiting    int // unresolved dependencies
	dependents []*jobRec
	result     interface{}
	err        error
	cacheHit   bool
	submitted  time.Time
	started    time.Time
	finished   time.Time
	done       chan struct{} // closed on terminal state
}

func (r *jobRec) info() Info {
	return Info{
		ID: r.id, Name: r.job.Name, State: r.state, CacheHit: r.cacheHit,
		Submitted: r.submitted, Started: r.started, Finished: r.finished,
		Err: r.err,
	}
}
