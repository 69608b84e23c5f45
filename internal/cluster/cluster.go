// Package cluster is dssmemd's job service: the async job API over
// the daemon's Exec, on one node.
//
// A scenario spec submitted as a job renders in the background while
// clients poll its state, stream per-point progress over SSE, and
// fetch the finished report. Progress attribution rides on the
// runner's content-addressed keys (experiments.ProgressKeys x
// runner.Event.Key).
//
// A job is its spec: the job id is a content address of the spec,
// name included, and resubmitting a spec returns its job. With a spec
// directory, each accepted spec is stored there, durably, before its
// id escapes, and a restarted daemon re-queues every stored spec. That
// is the whole of recovery: the simulator is deterministic, so a
// report is a function of its spec, and every point the persistent
// cache tiers hold resolves from them by content-addressed key instead
// of being simulated again.
package cluster

// Job lifecycle states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)
