package runner

import "repro/internal/metrics"

// jobSecondsBuckets spans the pool's real job durations: cache-key
// probes are microseconds, tiny test jobs are milliseconds, full-scale
// sweeps run minutes.
var jobSecondsBuckets = []float64{.001, .005, .01, .05, .1, .5, 1, 5, 10, 30, 60, 120, 300}

// poolMetrics is the pool's instrument set. Built from a nil registry
// every field is a nil instrument whose methods are no-ops, so the
// scheduling code records unconditionally; with no registry the cost is
// a handful of nil checks per job, nothing per simulated reference.
type poolMetrics struct {
	jobsSubmitted *metrics.Counter
	jobsStarted   *metrics.Counter
	jobsCompleted *metrics.Counter
	jobsFailed    *metrics.Counter

	queueDepth *metrics.Gauge // ready + dependency-blocked jobs
	running    *metrics.Gauge
	workers    *metrics.Gauge

	busySeconds *metrics.Counter
	jobSeconds  *metrics.Histogram

	// Cache lookup outcomes by tier; resolved to per-tier counters once
	// (cacheMetrics) so the lookup path pays no label resolution.
	cacheHits   *metrics.CounterVec
	cacheMisses *metrics.CounterVec

	traceWrites *metrics.Counter
}

func newPoolMetrics(r *metrics.Registry) poolMetrics {
	m := poolMetrics{
		jobsSubmitted: r.Counter("dssmem_runner_jobs_submitted_total",
			"Jobs submitted to the worker pool."),
		jobsStarted: r.Counter("dssmem_runner_jobs_started_total",
			"Jobs a worker began executing."),
		jobsCompleted: r.Counter("dssmem_runner_jobs_completed_total",
			"Jobs whose body completed successfully."),
		jobsFailed: r.Counter("dssmem_runner_jobs_failed_total",
			"Jobs that failed, lost a dependency, or were cancelled by shutdown."),
		queueDepth: r.Gauge("dssmem_runner_queue_depth",
			"Jobs waiting to run (ready plus dependency-blocked)."),
		running: r.Gauge("dssmem_runner_running",
			"Jobs currently executing on workers."),
		workers: r.Gauge("dssmem_runner_workers",
			"Size of the worker pool."),
		busySeconds: r.Counter("dssmem_runner_busy_seconds_total",
			"Cumulative wall time workers spent executing job bodies (utilization = rate over workers)."),
		jobSeconds: r.Histogram("dssmem_runner_job_seconds",
			"Per-job wall time, executed jobs only.", jobSecondsBuckets),
		cacheHits: r.CounterVec("dssmem_cache_hits_total",
			"Result-cache lookups answered, by tier.", "tier"),
		cacheMisses: r.CounterVec("dssmem_cache_misses_total",
			"Result-cache lookups not answered, by tier.", "tier"),
		traceWrites: r.Counter("dssmem_trace_store_writes_total",
			"Trace blobs written to the trace store."),
	}
	return m
}

// cacheMetrics is the per-tier counter set handed to the result cache,
// pre-resolved so the lookup path is a single atomic add per outcome.
// Creating the children eagerly also makes both tiers visible on
// /metrics from the first scrape.
type cacheMetrics struct {
	hitMem, missMem   *metrics.Counter
	hitDisk, missDisk *metrics.Counter
}

func (m poolMetrics) cacheMetrics() cacheMetrics {
	return cacheMetrics{
		hitMem:   m.cacheHits.With("memory"),
		missMem:  m.cacheMisses.With("memory"),
		hitDisk:  m.cacheHits.With("disk"),
		missDisk: m.cacheMisses.With("disk"),
	}
}

// traceMetrics is the trace store's instrument set; lookups share the
// cache hit/miss families under tier="trace".
type traceMetrics struct {
	hits, misses *metrics.Counter
	writes       *metrics.Counter
}

func (m poolMetrics) traceMetrics() traceMetrics {
	return traceMetrics{
		hits:   m.cacheHits.With("trace"),
		misses: m.cacheMisses.With("trace"),
		writes: m.traceWrites,
	}
}
