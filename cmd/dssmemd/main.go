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
// -wal-dir set, every job and task transition is journaled to a
// write-ahead log first, and a restarted daemon replays the log:
// finished jobs keep serving their reports, unfinished ones re-run,
// and drained leases come back queued.
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
	"strings"
	"syscall"
	"time"

	"repro/internal/blobstore"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/wal"
)

// server owns the Exec, the cluster fabric, and the metrics registry.
// The manager's job table is the only record of submitted work, and
// /v1/stats reads the registry back, so the JSON view and /metrics can
// never disagree.
type server struct {
	exec    *experiments.Exec
	reg     *metrics.Registry
	httpm   *metrics.HTTPMetrics
	start   time.Time
	store   blobstore.Store // local blob store served at /v1/blobs
	coord   *cluster.Coordinator
	manager *cluster.Manager
	journal *cluster.Journal // nil = not durable
	// renderTimeout bounds how long POST /v1/scenarios waits for its job;
	// 0 = no bound. The job outlives a 504, which names its id.
	renderTimeout time.Duration

	scRendered *metrics.CounterVec
}

// newServer builds the daemon. jl and rec may be nil (no -wal-dir):
// the fabric then runs in-memory only. With a journal, the coordinator
// and manager restore the recovered state before serving; the caller
// resumes unfinished jobs (manager.Resume) once it is ready to run
// them.
func newServer(exec *experiments.Exec, reg *metrics.Registry, store blobstore.Store, renderTimeout time.Duration, jl *cluster.Journal, rec *cluster.Recovered) *server {
	if store == nil {
		store = blobstore.NewMem()
	}
	cmet := cluster.NewMetrics(reg)
	coord := cluster.NewCoordinator(cmet, cluster.Options{Journal: jl})
	coord.Restore(rec)
	manager := cluster.NewManager(exec, coord, cmet)
	manager.UseJournal(jl)
	manager.Restore(rec)
	return &server{
		exec:          exec,
		reg:           reg,
		httpm:         metrics.NewHTTPMetrics(reg),
		start:         time.Now(),
		store:         store,
		coord:         coord,
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
	// Cluster fabric: the coordinator protocol workers drive, and the
	// local blob store peers read through (never the fan — a peer's GET
	// must not recurse into further peer fetches).
	clusterH := s.coord.Handler()
	handle("/v1/cluster", "/v1/cluster", clusterH)
	handle("/v1/cluster/", "/v1/cluster", clusterH)
	handle(blobstore.PathPrefix+"/", "/v1/blobs", blobstore.Handler(s.store))
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
	// Cluster fabric view: worker/job/task states plus the peer blob
	// traffic, summed from the same samples /metrics exposes.
	peerFetch := map[string]float64{}
	for _, f := range s.reg.Snapshot() {
		if f.Name == "dssmem_blob_peer_fetch_total" {
			for _, smp := range f.Samples {
				peerFetch[smp.Labels["result"]] += smp.Value
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
			"workers":    s.coord.Workers(),
			"jobs":       s.manager.Counts(),
			"tasks":      s.coord.Status().Tasks,
			"peer_fetch": peerFetch,
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
// (manager.Close does both), then stops the cluster machinery. The
// journal closes last — the manager's terminal records and any remote
// workers' released leases (which arrive over HTTP before the listener
// stopped) must land in it first, so a drain-then-restart cycle
// requeues tasks with zero lease expirations.
func (s *server) drain() {
	s.manager.Close()
	s.coord.Close()
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
	traceDir := flag.String("trace-dir", "", "directory for captured reference-trace blobs (empty = traces stay in the result cache)")
	walDir := flag.String("wal-dir", "", "directory for the job/task write-ahead log; a restarted daemon replays it and resumes pre-crash jobs (empty = no durability)")
	walSync := flag.Duration("wal-sync", 0, "WAL group-commit window: appends within it share one fsync (0 = fsync every append)")
	join := flag.String("join", "", "coordinator URL to join as a worker (e.g. http://coord:8080)")
	advertise := flag.String("advertise", "", "URL this daemon is reachable at, reported to the coordinator")
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

	// The blob store unifies the cache tiers with the cluster fabric:
	// the configured dirs keep their legacy on-disk layout; with no dirs
	// an in-memory store still lets this daemon coordinate peers. The
	// pool reads through a fan — local first, then the joined
	// coordinator — while /v1/blobs always serves the local store only.
	var store blobstore.Store
	ld := blobstore.NewLocalDir()
	mounted := false
	if *cacheDir != "" {
		if err := ld.Mount(blobstore.NSResult, *cacheDir, ".gob"); err != nil {
			log.Printf("disk cache disabled: %v", err)
		} else {
			mounted = true
		}
	}
	if *traceDir != "" {
		if err := ld.Mount(blobstore.NSTrace, *traceDir, ".trace"); err != nil {
			log.Printf("trace store disabled: %v", err)
		} else {
			mounted = true
		}
	}
	if mounted {
		store = ld
	} else {
		store = blobstore.NewMem()
	}
	var peers func() []string
	if *join != "" {
		peer := strings.TrimRight(*join, "/")
		peers = func() []string { return []string{peer} }
	}
	fan := blobstore.NewFan(store, peers, reg)

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
			Dir: *walDir, SyncWindow: *walSync, Metrics: reg,
		})
		if err != nil {
			log.Fatalf("wal %s: %v", *walDir, err)
		}
		records, truncated := journal.Recovery()
		log.Printf("wal: replayed %d records (%d jobs, %d tasks, %d torn bytes truncated)",
			records, len(recovered.Jobs), len(recovered.Tasks), truncated)
		if err := journal.Snapshot(recovered); err != nil {
			log.Printf("wal compaction failed (log will keep growing): %v", err)
		}
	}

	exec := experiments.NewExecConfig(runner.Config{Workers: *jobs, Blobs: fan, Metrics: reg})
	s := newServer(exec, reg, store, *renderTimeout, journal, recovered)
	// Re-run whatever had not finished; the coordinator hands back the
	// recovered tasks' outcomes and the caches absorb the recompute.
	s.manager.Resume(recovered)

	var worker *cluster.Worker
	if *join != "" {
		name, _ := os.Hostname()
		w, err := cluster.StartWorker(cluster.WorkerConfig{
			Coordinator: strings.TrimRight(*join, "/"),
			Name:        name,
			Advertise:   *advertise,
			Exec:        exec,
			Blobs:       store,
			Logf:        log.Printf,
		})
		if err != nil {
			log.Fatalf("join %s: %v", *join, err)
		}
		worker = w
		log.Printf("joined coordinator %s", *join)
	}

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

	// Graceful shutdown. The cluster worker drains first — it releases
	// any claimed-but-unfinished task back to the coordinator so the
	// work is reassigned immediately — then the HTTP server stops
	// accepting, in-flight jobs finish, and the pool's workers drain.
	log.Print("shutting down: draining in-flight jobs")
	if worker != nil {
		worker.Close()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	s.drain()
	exec.Close()
	log.Print("drained; bye")
}
