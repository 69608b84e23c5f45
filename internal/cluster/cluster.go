// Package cluster turns dssmemd into a horizontally-scalable sweep
// fabric. Three cooperating pieces, each usable alone:
//
//   - Manager: the async job API. A scenario spec submitted as a job
//     renders in the background while clients poll its state, stream
//     per-point progress over SSE, and fetch the finished report.
//     Progress attribution rides on the runner's content-addressed
//     keys (experiments.ProgressKeys x runner.Event.Key).
//
//   - Coordinator: the task queue behind distributed execution. A
//     scenario decomposes into capture/replay point tasks
//     (experiments.PlanScenario) with the capture→replay dependency
//     order preserved; workers claim tasks over HTTP under a lease,
//     renew while computing, and complete (or fail, or are reaped by
//     lease expiry and reassigned). The plans are the ones the
//     coordinator's own render runs, so every task's result key is a
//     point job of that render.
//
//   - Worker: the claim-execute-push loop a `dssmemd -join` daemon
//     runs. Claimed tasks execute on the daemon's own Exec through
//     experiments.ComputePoint, the render's job builder on one plan;
//     produced blobs (capture results, trace blobs, replay results)
//     are pushed to the coordinator's shared blob store, so every
//     peer's cache warms from any peer's work.
//
// Correctness never depends on the cluster: the coordinator's own
// render of the job (after its tasks settle) recomputes anything a
// worker failed to deliver, resolving whatever did land in the shared
// store by content-addressed key — so a cluster of unreliable workers
// degrades to the serial single-process result, byte for byte.
package cluster

import (
	"repro/internal/metrics"
)

// Job and task lifecycle states. Jobs are the manager's async units
// (one scenario each); tasks are the coordinator's distribution units
// (one capture/replay point each).
const (
	StateQueued  = "queued"
	StateRunning = "running" // jobs only; leased tasks are "leased"
	StateLeased  = "leased"  // tasks only
	StateDone    = "done"
	StateFailed  = "failed"
)

// Metrics is the cluster's instrument set, shared by the manager and
// coordinator so one registry describes the whole fabric. Built from a
// nil registry every instrument is a no-op, matching the rest of the
// tree's nil-registry contract.
type Metrics struct {
	workers          *metrics.Gauge
	leaseExpirations *metrics.Counter

	jobs  map[string]*metrics.Gauge // dssmem_cluster_jobs{state}
	tasks map[string]*metrics.Gauge // dssmem_cluster_tasks{state}
}

// NewMetrics registers the cluster families on reg (nil-safe). The
// per-state children are created eagerly so every state is visible on
// /metrics from the first scrape.
func NewMetrics(reg *metrics.Registry) *Metrics {
	jobs := reg.GaugeVec("dssmem_cluster_jobs",
		"Async jobs by lifecycle state.", "state")
	tasks := reg.GaugeVec("dssmem_cluster_tasks",
		"Coordinator tasks by lifecycle state.", "state")
	m := &Metrics{
		workers: reg.Gauge("dssmem_cluster_workers",
			"Live workers registered with this coordinator."),
		leaseExpirations: reg.Counter("dssmem_cluster_lease_expirations_total",
			"Task leases that expired (worker lost or stalled) and were reassigned or failed."),
		jobs:  make(map[string]*metrics.Gauge),
		tasks: make(map[string]*metrics.Gauge),
	}
	for _, st := range []string{StateQueued, StateRunning, StateDone, StateFailed} {
		m.jobs[st] = jobs.With(st)
	}
	for _, st := range []string{StateQueued, StateLeased, StateDone, StateFailed} {
		m.tasks[st] = tasks.With(st)
	}
	return m
}

// moveJob shifts one job between state gauges ("" = no gauge).
func (m *Metrics) moveJob(from, to string) { move(m.jobs, from, to) }

// moveTask shifts one task between state gauges.
func (m *Metrics) moveTask(from, to string) { move(m.tasks, from, to) }

func move(g map[string]*metrics.Gauge, from, to string) {
	if from != "" {
		g[from].Dec()
	}
	if to != "" {
		g[to].Inc()
	}
}
