// Package cluster is dssmemd's job service: the async job API and its
// write-ahead journal, on one daemon.
//
//   - Manager: a scenario spec submitted as a job renders in the
//     background on the daemon's Exec while clients poll its state,
//     stream per-point progress over SSE, and fetch the finished
//     report. Progress attribution rides on the runner's
//     content-addressed keys (experiments.ProgressKeys x
//     runner.Event.Key).
//
//   - Journal: with a WAL directory, each job's submission and terminal
//     transition are durable before they are observable. A restarted
//     daemon replays the log: finished jobs keep serving their reports,
//     and unfinished ones re-run from their spec, resolving every point
//     the persistent cache tiers already hold by content-addressed key
//     instead of simulating it again.
package cluster

// Job lifecycle states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)
