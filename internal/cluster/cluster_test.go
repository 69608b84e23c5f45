package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// coldSpec is the smallest real workload: one query, tiny scale.
func coldSpec() scenario.Scenario {
	sc := scenario.Default()
	sc.Machine.Processors = 2
	sc.Workload.Queries = []string{"Q6"}
	sc.Workload.Scale = 0.001
	return sc
}

// sweepSpec is a fig8-style sweep that decomposes into 2 captures + 8
// replays — enough structure for two workers to hand blobs across.
func sweepSpec() scenario.Scenario {
	sc := scenario.Default()
	sc.Machine.Processors = 2
	sc.Workload.Queries = []string{"Q3", "Q6"}
	sc.Workload.Scale = 0.002
	sc.Sweep = scenario.Sweep{Axis: scenario.AxisPrefetch, Points: []int{0, 1, 2, 4, 8}}
	return sc
}

// metricValue sums a family's samples on reg, optionally filtered by
// one label value.
func metricValue(t *testing.T, reg *metrics.Registry, family, label, value string) float64 {
	t.Helper()
	var sum float64
	for _, f := range reg.Snapshot() {
		if f.Name != family {
			continue
		}
		for _, s := range f.Samples {
			if label != "" && s.Labels[label] != value {
				continue
			}
			sum += s.Value
		}
	}
	return sum
}

// runBatch starts RunTasks in the background, waits for the batch to
// be enqueued, and returns the error channel.
func runBatch(t *testing.T, c *Coordinator, tasks []Task, onDone func(Task, error)) <-chan error {
	t.Helper()
	errCh := make(chan error, 1)
	go func() { errCh <- c.RunTasks(context.Background(), tasks, onDone) }()
	waitFor(t, 5*time.Second, "batch enqueue", func() bool {
		st := c.Status()
		return st.Tasks[StateQueued]+st.Tasks[StateLeased] >= len(tasks)
	})
	return errCh
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCoordinatorLeaseExpiry: a claimed task whose worker goes silent
// is reassigned after one lease TTL, counted on the expirations
// counter, and still completes.
func TestCoordinatorLeaseExpiry(t *testing.T) {
	reg := metrics.New()
	c := NewCoordinator(NewMetrics(reg), Options{LeaseTTL: 40 * time.Millisecond})
	defer c.Close()
	id, _ := c.Register("flaky", "")
	errCh := runBatch(t, c, []Task{{ID: "t1"}}, nil)

	task, err := c.Claim(id)
	if err != nil || task == nil {
		t.Fatalf("claim: task=%v err=%v", task, err)
	}
	// Never renew, never complete: the janitor must requeue it.
	var again *Task
	waitFor(t, 5*time.Second, "lease expiry reassignment", func() bool {
		again, err = c.Claim(id)
		return err == nil && again != nil
	})
	if again.ID != "t1" {
		t.Fatalf("reclaimed %q, want t1", again.ID)
	}
	if err := c.Complete(id, "t1", ""); err != nil {
		t.Fatalf("complete: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("RunTasks: %v", err)
	}
	if n := metricValue(t, reg, "dssmem_cluster_lease_expirations_total", "", ""); n < 1 {
		t.Fatalf("lease expirations = %v, want >= 1", n)
	}
	if st := c.Status(); st.Tasks[StateDone] != 1 {
		t.Fatalf("task states = %v, want one done", st.Tasks)
	}
}

// TestReleaseReassignsImmediately: a released lease is claimable at
// once — no TTL wait — and the release is not an expiry.
func TestReleaseReassignsImmediately(t *testing.T) {
	reg := metrics.New()
	c := NewCoordinator(NewMetrics(reg), Options{LeaseTTL: time.Minute})
	defer c.Close()
	w1, _ := c.Register("draining", "")
	w2, _ := c.Register("survivor", "")
	errCh := runBatch(t, c, []Task{{ID: "t1"}}, nil)

	if task, err := c.Claim(w1); err != nil || task == nil {
		t.Fatalf("first claim: task=%v err=%v", task, err)
	}
	if err := c.Release(w1, "t1"); err != nil {
		t.Fatalf("release: %v", err)
	}
	task, err := c.Claim(w2)
	if err != nil || task == nil {
		t.Fatalf("reclaim after release: task=%v err=%v", task, err)
	}
	// The old holder's late completion must be rejected, the new one's
	// accepted.
	if err := c.Complete(w1, "t1", ""); err == nil {
		t.Fatal("stale holder completed a released task")
	}
	if err := c.Complete(w2, "t1", ""); err != nil {
		t.Fatalf("complete: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("RunTasks: %v", err)
	}
	if n := metricValue(t, reg, "dssmem_cluster_lease_expirations_total", "", ""); n != 0 {
		t.Fatalf("release counted as expiry (%v)", n)
	}
}

// TestClaimDependencyOrder: a replay task is not claimable before its
// capture completes, and a failed dependency cascades.
func TestClaimDependencyOrder(t *testing.T) {
	c := NewCoordinator(nil, Options{LeaseTTL: time.Minute, MaxAttempts: 1})
	defer c.Close()
	id, _ := c.Register("w", "")
	tasks := []Task{
		{ID: "cap"},
		{ID: "rep", Deps: []string{"cap"}},
		{ID: "cap2"},
		{ID: "rep2", Deps: []string{"cap2"}},
	}
	var failed []string
	errCh := runBatch(t, c, tasks, func(task Task, err error) {
		if err != nil {
			failed = append(failed, task.ID)
		}
	})

	first, _ := c.Claim(id)
	if first == nil || first.ID != "cap" {
		t.Fatalf("first claim = %+v, want cap", first)
	}
	// rep is blocked; the next runnable is cap2.
	second, _ := c.Claim(id)
	if second == nil || second.ID != "cap2" {
		t.Fatalf("second claim = %+v, want cap2", second)
	}
	if task, _ := c.Claim(id); task != nil {
		t.Fatalf("claimed %q while every runnable task is leased", task.ID)
	}
	if err := c.Complete(id, "cap", ""); err != nil {
		t.Fatal(err)
	}
	third, _ := c.Claim(id)
	if third == nil || third.ID != "rep" {
		t.Fatalf("after cap done, claim = %+v, want rep", third)
	}
	if err := c.Complete(id, "rep", ""); err != nil {
		t.Fatal(err)
	}
	// cap2 fails terminally (MaxAttempts 1) — rep2 must cascade-fail
	// rather than dangle, and the batch reports the failure.
	if err := c.Complete(id, "cap2", "boom"); err != nil {
		t.Fatal(err)
	}
	if task, _ := c.Claim(id); task != nil {
		t.Fatalf("claimed %q after its dependency failed", task.ID)
	}
	if err := <-errCh; err == nil {
		t.Fatal("RunTasks returned nil despite a failed task")
	}
	for _, want := range []string{"cap2", "rep2"} {
		found := false
		for _, got := range failed {
			found = found || got == want
		}
		if !found {
			t.Fatalf("failed tasks %v missing %s", failed, want)
		}
	}
}

// TestWorkerDrainReleases is the SIGTERM-drain contract: closing a
// worker mid-computation hands its lease back synchronously, so the
// task is reassignable immediately instead of after the (long) TTL.
func TestWorkerDrainReleases(t *testing.T) {
	if testing.Short() {
		t.Skip("computes a real capture")
	}
	if raceEnabled {
		t.Skip("full simulation is too slow under -race")
	}
	reg := metrics.New()
	c := NewCoordinator(NewMetrics(reg), Options{LeaseTTL: time.Minute})
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	exec := experiments.NewExec(2)
	defer exec.Close()
	sc := coldSpec()
	sc.Workload.Scale = 0.01 // slow enough that the drain lands mid-compute
	plans, ok := experiments.PlanScenario(sc)
	if !ok || len(plans) != 1 {
		t.Fatalf("plans = %v, ok=%v", plans, ok)
	}
	errCh := runBatch(t, c, []Task{{ID: "t1", Plan: plans[0]}}, nil)

	w, err := StartWorker(WorkerConfig{Coordinator: srv.URL, Name: "drainee", Exec: exec, Poll: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "worker to lease the task", func() bool {
		return c.Status().Tasks[StateLeased] == 1
	})
	w.Close()
	if st := c.Status(); st.Tasks[StateQueued] != 1 {
		t.Fatalf("after drain, task states = %v, want the task back in queue", st.Tasks)
	}
	if c.Workers() != 0 {
		t.Fatal("drained worker still registered")
	}

	// A fresh worker picks it up with no lease-expiry wait.
	id, _ := c.Register("manual", "")
	task, err := c.Claim(id)
	if err != nil || task == nil {
		t.Fatalf("reclaim after drain: task=%v err=%v", task, err)
	}
	if err := c.Complete(id, task.ID, ""); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("RunTasks: %v", err)
	}
	if n := metricValue(t, reg, "dssmem_cluster_lease_expirations_total", "", ""); n != 0 {
		t.Fatalf("drain release counted as lease expiry (%v)", n)
	}
}

// stallStore is a blob store whose first lookup waits for release (or
// ten seconds): it holds a worker's compute open for as long as a test
// needs, however fast the host simulates.
type stallStore struct {
	*blobstore.Mem
	once    sync.Once
	release chan struct{}
}

func (s *stallStore) Get(ns, key string) ([]byte, error) {
	s.once.Do(func() {
		select {
		case <-s.release:
		case <-time.After(10 * time.Second):
		}
	})
	return s.Mem.Get(ns, key)
}

// codeRecorder remembers the status a handler wrote.
type codeRecorder struct {
	http.ResponseWriter
	code int
}

func (w *codeRecorder) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// TestWorkerRenewsLongTask: a task whose compute outlives its lease
// TTL survives on the HTTP worker's renewals — no lease expires, the
// worker is never reaped, and the point is computed exactly once. The
// compute is held open until the coordinator has accepted four
// renewals, which at the worker's TTL/3 cadence span more than a TTL.
func TestWorkerRenewsLongTask(t *testing.T) {
	if testing.Short() {
		t.Skip("computes a real capture")
	}
	const ttl = 600 * time.Millisecond
	const holdFor = 4 // renewals
	reg := metrics.New()
	c := NewCoordinator(NewMetrics(reg), Options{LeaseTTL: ttl})
	defer c.Close()
	store := &stallStore{Mem: blobstore.NewMem(), release: make(chan struct{})}
	var renewals atomic.Int64
	h := c.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rw := &codeRecorder{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(rw, r)
		if r.URL.Path == "/v1/cluster/renew" && rw.code < 300 && renewals.Add(1) == holdFor {
			close(store.release)
		}
	}))
	defer srv.Close()

	regW := metrics.New()
	exec := experiments.NewExecConfig(runner.Config{Workers: 2, Blobs: store, Metrics: regW})
	defer exec.Close()
	plans, ok := experiments.PlanScenario(coldSpec())
	if !ok || len(plans) != 1 {
		t.Fatalf("plans = %v, ok=%v", plans, ok)
	}
	errCh := runBatch(t, c, []Task{{ID: "t1", Plan: plans[0]}}, nil)
	w, err := StartWorker(WorkerConfig{Coordinator: srv.URL, Name: "slow", Exec: exec, Poll: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := <-errCh; err != nil {
		t.Fatalf("RunTasks: %v", err)
	}
	if n := renewals.Load(); n < holdFor {
		t.Fatalf("task settled after %d accepted renewals, want at least %d", n, holdFor)
	}
	if n := metricValue(t, reg, "dssmem_cluster_lease_expirations_total", "", ""); n != 0 {
		t.Fatalf("%v lease expirations, want 0", n)
	}
	if n := metricValue(t, regW, "dssmem_runner_jobs_submitted_total", "", ""); n != 1 {
		t.Fatalf("worker submitted %v jobs, want the capture once", n)
	}
	st := c.Status()
	if len(st.Workers) != 1 || st.Workers[0].TasksDone != 1 || st.Tasks[StateDone] != 1 {
		t.Fatalf("status = %+v, want one worker that settled the one task", st)
	}
}

// TestWorkerIDsDoNotSurviveRestart: a worker id granted by one
// coordinator is unknown to its successor — 410 on every protocol call,
// so the worker re-registers — and the successor never grants it.
func TestWorkerIDsDoNotSurviveRestart(t *testing.T) {
	c1 := NewCoordinator(nil, Options{})
	old, _ := c1.Register("pre-restart", "")
	c1.Close()

	c2 := NewCoordinator(nil, Options{})
	defer c2.Close()
	srv := httptest.NewServer(c2.Handler())
	defer srv.Close()
	for _, path := range []string{"claim", "renew", "complete", "release"} {
		body := fmt.Sprintf(`{"worker_id":%q,"task_id":"t1"}`, old)
		resp, err := http.Post(srv.URL+"/v1/cluster/"+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusGone {
			t.Fatalf("%s with the predecessor's worker id %s: HTTP %d, want 410", path, old, resp.StatusCode)
		}
	}
	for i := 0; i < 100; i++ {
		if id, _ := c2.Register("", ""); id == old {
			t.Fatalf("successor granted the predecessor's worker id %s", old)
		}
	}
}

// TestManagerStandalone: with no coordinator the manager is an async
// front on RenderScenario — same report, plus progress and a terminal
// state event.
func TestManagerStandalone(t *testing.T) {
	if testing.Short() {
		t.Skip("renders a real scenario")
	}
	exec := experiments.NewExec(2)
	defer exec.Close()
	m := NewManager(exec, nil, nil)
	defer m.Close()

	sc := coldSpec()
	id, err := m.Submit(sc)
	if err != nil {
		t.Fatal(err)
	}
	replay, live, cancel, ok := m.Subscribe(id)
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer cancel()
	events := append([]Event(nil), replay...)
	for ev := range live {
		events = append(events, ev)
	}

	st, _ := m.Status(id)
	if st.State != StateDone {
		t.Fatalf("job state = %s (%s), want done", st.State, st.Error)
	}
	if st.Progress.Total != 1 || st.Progress.Done != 1 {
		t.Fatalf("progress = %+v, want 1/1", st.Progress)
	}
	var progress, state int
	for _, ev := range events {
		switch ev.Kind {
		case "progress":
			progress++
		case "state":
			state++
		}
	}
	if progress < 1 || state != 1 {
		t.Fatalf("events: %d progress, %d state; want >=1 and exactly 1", progress, state)
	}
	if last := events[len(events)-1]; last.Kind != "state" || last.State != StateDone {
		t.Fatalf("last event = %+v, want the done transition", last)
	}

	report, _, _, _, err := m.Report(id)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := exec.RenderScenario(&want, sc); err != nil {
		t.Fatal(err)
	}
	if report != want.String() {
		t.Fatalf("async report differs from direct render:\n--- async ---\n%s\n--- direct ---\n%s", report, want.String())
	}
}

// TestManagerOverlappingJobs: two jobs whose plans share keys render
// at once on one pool; each job's listener sees every settled key it
// planned, whichever render settled it, so both finish with all points
// counted.
func TestManagerOverlappingJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("renders real scenarios")
	}
	exec := experiments.NewExec(2)
	defer exec.Close()
	m := NewManager(exec, nil, nil)
	defer m.Close()

	a, b := coldSpec(), coldSpec()
	a.Sweep = scenario.Sweep{Axis: scenario.AxisPrefetch, Points: []int{0, 1, 2}}
	b.Sweep = scenario.Sweep{Axis: scenario.AxisPrefetch, Points: []int{1, 2, 4}}
	specs := []scenario.Scenario{a, b}
	var ids []string
	for _, sc := range specs {
		id, err := m.Submit(sc)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i, id := range ids {
		if !m.Wait(context.Background(), id) {
			t.Fatalf("job %s never finished", id)
		}
		st, _ := m.Status(id)
		want := len(experiments.ProgressKeys(specs[i]))
		if st.State != StateDone || st.Progress.Done != want || st.Progress.Total != want {
			t.Fatalf("job %s = %s %+v (%s), want done %d/%d", id, st.State, st.Progress, st.Error, want, want)
		}
	}
}

// TestClusterEndToEnd: one coordinator + two workers over HTTP, one
// sweep job. The report must be byte-identical to a serial render, at
// least one blob must cross peers (a capture computed on one worker,
// replayed from the shared store by the other), and every task must
// settle done.
func TestClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full distributed sweep")
	}
	if raceEnabled {
		t.Skip("full distributed sweep is too slow under -race")
	}

	// Coordinator side: shared store, manager, HTTP surface.
	regC := metrics.New()
	metC := NewMetrics(regC)
	shared := blobstore.NewMem()
	coord := NewCoordinator(metC, Options{LeaseTTL: 5 * time.Second})
	defer coord.Close()
	execC := experiments.NewExecConfig(runner.Config{Workers: 2, Blobs: shared, Metrics: regC})
	defer execC.Close()
	m := NewManager(execC, coord, metC)
	defer m.Close()

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", m.HandleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", m.HandleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/report", m.HandleReport)
	mux.Handle("/v1/cluster", coord.Handler())
	mux.Handle("/v1/cluster/", coord.Handler())
	mux.Handle(blobstore.PathPrefix+"/", blobstore.Handler(shared))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Two workers, each with its own pool and a local store that reads
	// through to the coordinator.
	peers := func() []string { return []string{srv.URL} }
	workerRegs := make([]*metrics.Registry, 2)
	for i := range workerRegs {
		regW := metrics.New()
		workerRegs[i] = regW
		local := blobstore.NewMem()
		fan := blobstore.NewFan(local, peers, regW)
		execW := experiments.NewExecConfig(runner.Config{Workers: 2, Blobs: fan, Metrics: regW})
		defer execW.Close()
		w, err := StartWorker(WorkerConfig{
			Coordinator: srv.URL, Name: fmt.Sprintf("worker-%d", i),
			Exec: execW, Blobs: local, Poll: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
	}
	waitFor(t, 10*time.Second, "both workers to register", func() bool {
		return coord.Workers() == 2
	})

	sc := sweepSpec()
	body, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var accepted struct {
		JobID string `json:"job_id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || accepted.JobID == "" {
		t.Fatalf("submit: HTTP %d, %+v", resp.StatusCode, accepted)
	}

	var st JobStatus
	waitFor(t, 4*time.Minute, "job to finish", func() bool {
		r, err := http.Get(srv.URL + "/v1/jobs/" + accepted.JobID)
		if err != nil {
			return false
		}
		defer r.Body.Close()
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			return false
		}
		return st.State == StateDone || st.State == StateFailed
	})
	if st.State != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	if st.Progress.Total != 10 || st.Progress.Done != 10 {
		t.Fatalf("progress = %+v, want 10/10 (2 captures + 8 replays)", st.Progress)
	}

	r, err := http.Get(srv.URL + "/v1/jobs/" + accepted.JobID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Hash   string `json:"hash"`
		Report string `json:"report"`
	}
	if err := json.NewDecoder(r.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()

	// Byte-identical to a fresh serial render of the same spec.
	serial := experiments.NewExec(2)
	defer serial.Close()
	var want strings.Builder
	if err := serial.RenderScenario(&want, sc); err != nil {
		t.Fatal(err)
	}
	if rep.Report != want.String() {
		t.Fatalf("distributed report differs from serial render:\n--- distributed ---\n%s\n--- serial ---\n%s",
			rep.Report, want.String())
	}

	// The distribution actually happened and actually crossed peers.
	if done := coord.Status().Tasks[StateDone]; done != 10 {
		t.Fatalf("coordinator settled %d tasks done, want 10: %v", done, coord.Status().Tasks)
	}
	var crossPeerHits float64
	for _, regW := range workerRegs {
		crossPeerHits += metricValue(t, regW, "dssmem_blob_peer_fetch_total", "result", "hit")
	}
	if crossPeerHits < 1 {
		t.Fatalf("no cross-peer blob fetch hits — every worker computed everything locally")
	}

	// Cluster progress attribution: the tasks' completions, not the
	// local render, drove the progress feed.
	replay, live, cancel, ok := m.Subscribe(accepted.JobID)
	if !ok {
		t.Fatal("subscribe to finished job failed")
	}
	cancel()
	for range live {
	}
	viaCluster := 0
	for _, ev := range replay {
		if ev.Kind == "progress" && ev.Via == "cluster" {
			viaCluster++
		}
	}
	if viaCluster < 1 {
		t.Fatal("no progress events attributed to cluster tasks")
	}
}
