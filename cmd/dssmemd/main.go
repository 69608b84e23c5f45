// Command dssmemd serves scenario specs over HTTP: a long-lived daemon
// in front of the internal/runner worker pool, so repeated requests are
// answered from the content-addressed result cache instead of
// re-simulating. Every request that runs work is a job on the
// cluster.Manager; the named figures stay on `dssmem -exp`.
//
//	dssmemd [-addr :8080] [-jobs N] [-cache-dir DIR] [-trace-dir DIR] [-wal-dir DIR]
//
// Endpoints:
//
//	POST /v1/jobs             submit one declarative scenario spec (JSON body) as an
//	                          async job; returns {"job_id",...}. Specs may carry
//	                          workload.phases (a multi-phase query stream); phase
//	                          streams render per-phase tables and hash under the
//	                          s2- stream format generation
//	GET  /v1/jobs/{id}        status and per-point progress
//	GET  /v1/jobs/{id}/events the same progress as server-sent events
//	GET  /v1/jobs/{id}/report when done, {"name","preset","hash","report"}
//	POST /v1/scenarios        the same submission, answered synchronously: submit the
//	                          job, wait for it (bounded by -render-timeout), return
//	                          its report payload
//	GET  /v1/scenarios/presets the preset specs behind every named experiment
//	GET  /v1/healthz          liveness
//	GET  /v1/stats            JSON operational snapshot: uptime, requests, cache hit rate
//	GET  /metrics             Prometheus text exposition (internal/metrics)
//	GET  /debug/pprof/        live profiling (CPU, heap, goroutine, trace)
//
// Every route runs behind the internal/metrics HTTP middleware, so
// request counts, status classes, latency histograms, and in-flight
// gauges land on /metrics alongside the runner, cache, experiment, and
// Go-runtime instruments.
//
// On SIGINT/SIGTERM the daemon stops accepting connections, lets
// in-flight jobs finish rendering, then drains the pool. With
// -wal-dir set, each job's submission and terminal transition are
// journaled to a write-ahead log first, and a restarted daemon replays
// the log: finished jobs keep serving their reports, and unfinished
// ones re-run, resolving every point -cache-dir already holds instead
// of simulating it again.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/wal"
)

// server owns the Exec, the job manager, and the metrics registry.
// The manager's job table is the only record of submitted work, and
// /v1/stats reads the registry back, so the JSON view and /metrics can
// never disagree.
type server struct {
	exec    *experiments.Exec
	reg     *metrics.Registry
	httpm   *metrics.HTTPMetrics
	start   time.Time
	manager *cluster.Manager
	journal *cluster.Journal // nil = not durable
	// renderTimeout bounds how long POST /v1/scenarios waits for its job;
	// 0 = no bound. The job outlives a 504, which names its id.
	renderTimeout time.Duration

	scRendered *metrics.CounterVec
}

// newServer builds the daemon. jl and rec may be nil (no -wal-dir):
// jobs then live in memory only. With a journal, the manager restores
// the recovered jobs before serving; the caller resumes unfinished jobs
// (manager.Resume) once it is ready to run them.
func newServer(exec *experiments.Exec, reg *metrics.Registry, renderTimeout time.Duration, jl *cluster.Journal, rec *cluster.Recovered) *server {
	manager := cluster.NewManager(exec, reg)
	manager.UseJournal(jl)
	manager.Restore(rec)
	return &server{
		exec:          exec,
		reg:           reg,
		httpm:         metrics.NewHTTPMetrics(reg),
		start:         time.Now(),
		manager:       manager,
		journal:       jl,
		renderTimeout: renderTimeout,
		scRendered: reg.CounterVec("dssmem_scenarios_rendered_total",
			"Scenario specs rendered by POST /v1/scenarios, by preset name (custom specs label \"custom\").",
			"preset"),
	}
}

// handler builds the route table. Each route is wrapped with the HTTP
// middleware under its pattern (not the concrete URL), so /metrics
// cardinality stays bounded no matter how many job ids exist.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, route string, h http.Handler) {
		mux.Handle(pattern, s.httpm.Wrap(route, h))
	}
	handle("POST /v1/scenarios", "/v1/scenarios", http.HandlerFunc(s.submitScenario))
	handle("GET /v1/scenarios/presets", "/v1/scenarios/presets", http.HandlerFunc(s.presets))
	// Async job API: submit, poll, stream progress, fetch the report.
	handle("POST /v1/jobs", "/v1/jobs", http.HandlerFunc(s.manager.HandleSubmit))
	handle("GET /v1/jobs/{id}", "/v1/jobs/{id}", http.HandlerFunc(s.manager.HandleStatus))
	handle("GET /v1/jobs/{id}/events", "/v1/jobs/{id}/events", http.HandlerFunc(s.manager.HandleEvents))
	handle("GET /v1/jobs/{id}/report", "/v1/jobs/{id}/report", http.HandlerFunc(s.manager.HandleReport))
	handle("GET /v1/healthz", "/v1/healthz", http.HandlerFunc(s.healthz))
	handle("GET /v1/stats", "/v1/stats", http.HandlerFunc(s.stats))
	handle("GET /metrics", "/metrics", s.reg.Handler())
	// Live profiling of a running daemon: `go tool pprof
	// http://host/debug/pprof/profile` while jobs execute.
	handle("/debug/pprof/", "/debug/pprof", http.HandlerFunc(pprof.Index))
	handle("/debug/pprof/cmdline", "/debug/pprof", http.HandlerFunc(pprof.Cmdline))
	handle("/debug/pprof/profile", "/debug/pprof", http.HandlerFunc(pprof.Profile))
	handle("/debug/pprof/symbol", "/debug/pprof", http.HandlerFunc(pprof.Symbol))
	handle("/debug/pprof/trace", "/debug/pprof", http.HandlerFunc(pprof.Trace))
	return mux
}

// submitScenario is the synchronous adapter over the job API: submit
// the spec exactly as POST /v1/jobs does, wait for the job's terminal
// state, and answer with the payload GET /v1/jobs/{id}/report serves.
// A wait that outlasts -render-timeout answers 504 naming the job, which
// keeps running: the client polls that id instead of resubmitting.
func (s *server) submitScenario(w http.ResponseWriter, r *http.Request) {
	id, ok := s.manager.SubmitBody(w, r)
	if !ok {
		return
	}
	ctx := r.Context()
	if s.renderTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.renderTimeout)
		defer cancel()
	}
	if !s.manager.Wait(ctx, id) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusGatewayTimeout)
		json.NewEncoder(w).Encode(map[string]string{
			"error":  fmt.Sprintf("render exceeded %s; the job continues — poll GET /v1/jobs/%s", s.renderTimeout, id),
			"job_id": id,
		})
		return
	}
	if preset, ok := s.manager.WriteReport(w, id); ok {
		s.scRendered.With(preset).Inc()
	}
}

// presets returns every preset spec as JSON — the machine-readable
// registry behind dssmem -list and the named experiments.
func (s *server) presets(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(scenario.Presets())
}

func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
}

// stats reports the operational state as JSON. Everything beyond the
// pool snapshot is derived from the metrics registry — the HTTP request
// total is summed from the same samples /metrics exposes.
func (s *server) stats(w http.ResponseWriter, r *http.Request) {
	ps := s.exec.Pool().Stats()
	var served float64
	for _, f := range s.reg.Snapshot() {
		if f.Name == "dssmem_http_requests_total" {
			for _, smp := range f.Samples {
				served += smp.Value
			}
		}
	}
	recRecords, recTruncated := s.journal.Recovery()
	resp := map[string]interface{}{
		"pool":           ps,
		"cache_hit_rate": ps.HitRate(),
		"uptime_seconds": time.Since(s.start).Seconds(),
		"requests_total": served,
		"cluster": map[string]interface{}{
			"jobs": s.manager.Counts(),
		},
		"wal": map[string]interface{}{
			"enabled":                  s.journal != nil,
			"recovery_records":         recRecords,
			"recovery_truncated_bytes": recTruncated,
			"appends":                  s.journal.Appends(),
		},
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// drain stops accepting submissions and waits for in-flight jobs
// (manager.Close does both). The journal closes last: the manager's
// terminal records must land in it first.
func (s *server) drain() {
	s.manager.Close()
	if err := s.journal.Close(); err != nil {
		log.Printf("wal close: %v", err)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dssmemd: ")
	addr := flag.String("addr", ":8080", "listen address")
	jobs := flag.Int("jobs", 0, "concurrent experiment workers (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache-dir", "", "directory for the persistent result cache (empty = in-memory only)")
	traceDir := flag.String("trace-dir", "", "directory for captured reference-trace blobs (empty = no trace store: a sweep replays its recording in memory, and -cache-dir results carry their blob inline)")
	walDir := flag.String("wal-dir", "", "directory for the job write-ahead log; a restarted daemon replays it and resumes pre-crash jobs (empty = no durability)")
	renderTimeout := flag.Duration("render-timeout", 0, "server-side bound on POST /v1/scenarios renders; exceeded renders answer 504 naming the job, which finishes in the background (0 = unbounded)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "unexpected arguments:", flag.Args())
		os.Exit(2)
	}
	// Negative worker counts used to fall into the "<= 0 means default"
	// buckets silently; reject them as usage errors instead.
	if *jobs < 0 {
		fmt.Fprintf(os.Stderr, "dssmemd: -jobs must be >= 0 (got %d)\n", *jobs)
		os.Exit(2)
	}

	// A daemon should keep serving when its disk cache is unusable:
	// degrade to the memory tier and say so, instead of dying at boot.
	if *cacheDir != "" {
		if err := runner.ValidateCacheDir(*cacheDir); err != nil {
			log.Printf("disk cache disabled: %v", err)
			*cacheDir = ""
		}
	}
	if *traceDir != "" {
		if err := runner.ValidateCacheDir(*traceDir); err != nil {
			log.Printf("trace store disabled: %v", err)
			*traceDir = ""
		}
	}

	reg := metrics.New()
	reg.CollectGoRuntime()

	// Durability: open the WAL and replay it before anything serves.
	// Unlike the cache dirs, an unusable WAL dir is fatal — silently
	// dropping durability defeats the reason the operator asked for it.
	// The boot snapshot compacts the replayed log into one record so it
	// does not grow without bound across restarts.
	var journal *cluster.Journal
	var recovered *cluster.Recovered
	if *walDir != "" {
		var err error
		journal, recovered, err = cluster.OpenJournal(wal.Options{
			Dir: *walDir, Metrics: reg,
		})
		if err != nil {
			log.Fatalf("wal %s: %v", *walDir, err)
		}
		records, truncated := journal.Recovery()
		log.Printf("wal: replayed %d records (%d jobs, %d torn bytes truncated)",
			records, len(recovered.Jobs), truncated)
		if err := journal.Snapshot(recovered); err != nil {
			log.Printf("wal compaction failed (log will keep growing): %v", err)
		}
	}

	exec := experiments.NewExecConfig(runner.Config{Workers: *jobs,
		CacheDir: *cacheDir, TraceDir: *traceDir, Metrics: reg})
	s := newServer(exec, reg, *renderTimeout, journal, recovered)
	// Re-run whatever had not finished; the cache dirs absorb the
	// recompute of points finished before the crash.
	s.manager.Resume(recovered)

	srv := &http.Server{
		Addr:    *addr,
		Handler: s.handler(),
		// Slow-client protection. WriteTimeout must cover the longest
		// legitimate response: a 30s pprof CPU profile or a full trace.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("listening on %s (%d workers)", *addr, exec.Pool().Stats().Workers)

	select {
	case err := <-errCh:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	// Graceful shutdown: the HTTP server stops accepting, in-flight
	// jobs finish, and the pool's workers drain.
	log.Print("shutting down: draining in-flight jobs")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	s.drain()
	exec.Close()
	log.Print("drained; bye")
}
