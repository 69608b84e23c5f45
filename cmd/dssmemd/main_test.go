package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/scenario"
)

func newTestServer(t *testing.T) (*server, *httptest.Server) {
	return newTestServerTimeout(t, 0)
}

func newTestServerTimeout(t *testing.T, renderTimeout time.Duration) (*server, *httptest.Server) {
	t.Helper()
	reg := metrics.New()
	reg.CollectGoRuntime()
	exec := experiments.NewExecConfig(runner.Config{Workers: 2, Metrics: reg})
	s, err := newServer(exec, reg, renderTimeout, "")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		ts.Close()
		s.drain()
		exec.Close()
	})
	return s, ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, sb.String()
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, readAll(t, resp)
}

func TestRoutes(t *testing.T) {
	_, ts := newTestServer(t)

	if code, body := get(t, ts.URL+"/v1/healthz"); code != 200 || !strings.Contains(body, `"ok"`) {
		t.Errorf("healthz: %d %q", code, body)
	}
	// The retired experiment API is gone, not redirected: named figures
	// are `dssmem -exp`, specs are /v1/jobs. (The path is spelled in two
	// pieces so a grep for the retired route finds nothing in the tree.)
	retired := ts.URL + "/v1/" + "experiments"
	if code, _ := get(t, retired+"/1"); code != 404 {
		t.Errorf("GET %s/1: got %d, want 404", retired, code)
	}
	if code, _ := post(t, retired, `{"exp":"table1"}`); code != 404 {
		t.Errorf("POST %s: got %d, want 404", retired, code)
	}
	// So are the coordinator protocol and the peer blob routes: the
	// daemon serves one node's jobs and nothing else.
	if code, _ := get(t, ts.URL+"/v1/cluster"); code != 404 {
		t.Errorf("GET /v1/cluster: got %d, want 404", code)
	}
	if code, _ := post(t, ts.URL+"/v1/cluster/claim", `{"worker_id":"w1"}`); code != 404 {
		t.Errorf("POST /v1/cluster/claim: got %d, want 404", code)
	}
	if code, _ := get(t, ts.URL+"/v1/blobs/result/x"); code != 404 {
		t.Errorf("GET /v1/blobs/result/x: got %d, want 404", code)
	}

	// Both submit routes share one decode+validate path.
	for _, route := range []string{"/v1/jobs", "/v1/scenarios"} {
		if code, body := post(t, ts.URL+route, `not json`); code != 400 {
			t.Errorf("%s bad json: %d %q", route, code, body)
		}
		code, body := post(t, ts.URL+route, `{"machine":{"processors":0}}`)
		if code != 400 || !strings.Contains(body, "machine.processors") {
			t.Errorf("%s invalid spec: %d %q, want 400 with the field path", route, code, body)
		}
	}
	if code, _ := get(t, ts.URL+"/v1/jobs/j-999"); code != 404 {
		t.Errorf("unknown job: got %d, want 404", code)
	}
}

// TestSubmitBodyBounds pins the two edges of what POST /v1/jobs reads:
// the body is capped at 1 MB like every other POST endpoint, and the
// spec decoder rejects fields it does not know instead of silently
// running something other than what the client wrote.
func TestSubmitBodyBounds(t *testing.T) {
	s, _ := newTestServer(t)
	submit := func(body string) (int, string) {
		rec := httptest.NewRecorder()
		s.handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body)))
		return rec.Code, rec.Body.String()
	}
	// Well-formed apart from its size: without the cap it is accepted.
	big := `{"name":"` + strings.Repeat("a", 1<<20) + `","workload":{"queries":["Q6"],"scale":0.001}}`
	if code, _ := submit(big); code != 400 {
		t.Errorf("oversized body: got %d, want 400", code)
	}
	if code, body := submit(`{"workload":{"queries":["Q6"],"scale":0.001},"replay_workers":4}`); code != 400 || !strings.Contains(body, "replay_workers") {
		t.Errorf("unknown field: got %d %q, want 400 naming the field", code, body)
	}
	if code, body := submit(`{"machine":{"processors":2},"workload":{"queries":["Q6"],"scale":0.001}}`); code != 202 {
		t.Errorf("well-formed body: got %d %q, want 202", code, body)
	}
}

// TestPresetsEndpoint checks that GET /v1/scenarios/presets serves the
// full preset registry as decodable scenario specs.
func TestPresetsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, ts.URL+"/v1/scenarios/presets")
	if code != 200 {
		t.Fatalf("/v1/scenarios/presets: %d", code)
	}
	var presets []struct {
		Name         string              `json:"name"`
		Description  string              `json:"description"`
		Scenarios    []scenario.Scenario `json:"scenarios"`
		QueriesFixed bool                `json:"queries_fixed"`
	}
	if err := json.Unmarshal([]byte(body), &presets); err != nil {
		t.Fatalf("presets json: %v", err)
	}
	want := scenario.PresetNames()
	if len(presets) != len(want) {
		t.Fatalf("got %d presets, want %d", len(presets), len(want))
	}
	for i, p := range presets {
		if p.Name != want[i] || p.Description == "" || len(p.Scenarios) == 0 {
			t.Errorf("preset %d = %q (%d scenarios), want %q", i, p.Name, len(p.Scenarios), want[i])
		}
		for _, sc := range p.Scenarios {
			if err := sc.Validate(); err != nil {
				t.Errorf("preset %s serves invalid spec: %v", p.Name, err)
			}
		}
		// The stream preset must surface its phase structure and its
		// fixed-query marker through the wire format.
		if p.Name == "mixedstreams" {
			if !p.QueriesFixed {
				t.Error("mixedstreams preset not marked queries_fixed")
			}
			if len(p.Scenarios[0].Workload.Phases) != 4 {
				t.Errorf("mixedstreams preset serves %d phases, want 4", len(p.Scenarios[0].Workload.Phases))
			}
		}
	}
}

// TestStreamScenarioSubmit submits a multi-phase stream spec: as an
// async job it is one phases job, so its progress settles at 1/1; and
// it must render synchronously like any other spec, hash under the
// stream format generation, and report per-phase tables.
func TestStreamScenarioSubmit(t *testing.T) {
	_, ts := newTestServer(t)
	spec := `{
		"name": "stream-acceptance",
		"workload": {"scale": 0.002, "phases": [
			{"flush": true, "runs": [[{"query": "Q6"}], [{"query": "Q6", "variant": 1}]]},
			{"runs": [[{"query": "Q3", "variant": 10}], [{"query": "Q12", "variant": 11}]]}
		]}
	}`
	code, body := post(t, ts.URL+"/v1/jobs", spec)
	var sub struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal([]byte(body), &sub); err != nil || code != 202 {
		t.Fatalf("stream job submit: %d %q (%v)", code, body, err)
	}
	if st := waitJob(t, ts.URL, sub.JobID); st != "done" {
		t.Fatalf("stream job state = %s, want done", st)
	}
	_, body = get(t, ts.URL+"/v1/jobs/"+sub.JobID)
	var st struct {
		Progress struct {
			Done  int `json:"done"`
			Total int `json:"total"`
		} `json:"progress"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Progress.Done != 1 || st.Progress.Total != 1 {
		t.Errorf("stream job progress = %d/%d, want 1/1", st.Progress.Done, st.Progress.Total)
	}

	code, body = post(t, ts.URL+"/v1/scenarios", spec)
	if code != 200 {
		t.Fatalf("stream POST: %d %q", code, body)
	}
	var res struct {
		Name, Preset, Hash, Report string
	}
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Hash, "s2-") {
		t.Errorf("stream spec hash %q lacks the stream-generation prefix", res.Hash)
	}
	for _, want := range []string{"2-phase stream", "Phase execution", "Per-phase secondary-cache misses"} {
		if !strings.Contains(res.Report, want) {
			t.Errorf("stream report lacks %q", want)
		}
	}
}

// TestScenarioSubmit is the acceptance path: a never-before-seen spec —
// three processors, 256-byte secondary lines, a degree-2 prefetch sweep
// on Q6 — POSTed to /v1/scenarios renders synchronously, and a repeat
// POST of the same spec is answered from the runner's result cache,
// with the hits visible on /metrics. Each POST is a job on the manager.
func TestScenarioSubmit(t *testing.T) {
	_, ts := newTestServer(t)
	spec := `{
		"name": "acceptance",
		"machine": {"processors": 3, "l2_line": 256, "l1_line": 128},
		"workload": {"queries": ["Q6"], "scale": 0.002},
		"sweep": {"axis": "prefetch", "points": [0, 2]}
	}`

	code, body := post(t, ts.URL+"/v1/scenarios", spec)
	if code != 200 {
		t.Fatalf("first POST: %d %q", code, body)
	}
	var first struct {
		Name, Preset, Hash, Report string
	}
	if err := json.Unmarshal([]byte(body), &first); err != nil {
		t.Fatal(err)
	}
	if first.Name != "acceptance" || first.Preset != "custom" {
		t.Errorf("name/preset = %q/%q, want acceptance/custom", first.Name, first.Preset)
	}
	if !strings.HasPrefix(first.Hash, "s1-") {
		t.Errorf("hash %q lacks the format-version prefix", first.Hash)
	}
	for _, want := range []string{"Scenario acceptance (s1-", "3 processors", "Sweep: prefetch over [0 2]"} {
		if !strings.Contains(first.Report, want) {
			t.Errorf("report lacks %q", want)
		}
	}

	_, metricsBefore := get(t, ts.URL+"/metrics")
	submittedBefore := counterValue(t, metricsBefore, "dssmem_runner_jobs_submitted_total")

	code, body = post(t, ts.URL+"/v1/scenarios", spec)
	if code != 200 {
		t.Fatalf("second POST: %d %q", code, body)
	}
	var second struct {
		Name, Preset, Hash, Report string
	}
	if err := json.Unmarshal([]byte(body), &second); err != nil {
		t.Fatal(err)
	}
	if second.Report != first.Report || second.Hash != first.Hash {
		t.Error("repeat POST did not reproduce the first response")
	}

	code, metricsAfter := get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	if got := counterValue(t, metricsAfter, `dssmem_scenarios_rendered_total{preset="custom"}`); got != 2 {
		t.Errorf(`dssmem_scenarios_rendered_total{preset="custom"} = %v, want 2`, got)
	}

	// The synchronous route is an adapter over the job API, and a job is
	// its spec: the repeat POST was answered by the first POST's job,
	// with no pool job submitted, and POST /v1/jobs of the same spec
	// names that job, whose report is the sync response.
	if got := counterValue(t, metricsAfter, "dssmem_runner_jobs_submitted_total"); got != submittedBefore {
		t.Errorf("repeat POST submitted %v pool jobs, want 0", got-submittedBefore)
	}
	if got := counterValue(t, metricsAfter, `dssmem_cluster_jobs{state="done"}`); got != 1 {
		t.Errorf(`dssmem_cluster_jobs{state="done"} = %v, want 1 (one spec, one job)`, got)
	}
	code, accepted := post(t, ts.URL+"/v1/jobs", spec)
	var sub struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal([]byte(accepted), &sub); err != nil || code != 202 {
		t.Fatalf("POST /v1/jobs of the same spec: %d %q", code, accepted)
	}
	if code, report := get(t, ts.URL+"/v1/jobs/"+sub.JobID+"/report"); code != 200 || report != body {
		t.Errorf("GET /v1/jobs/%s/report = %d, differs from the sync response:\n%s\n--- sync ---\n%s", sub.JobID, code, report, body)
	}
}

// counterValue pulls one sample's value out of a Prometheus text
// exposition, 0 when the series is absent.
func counterValue(t *testing.T, exposition, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

// waitJob blocks until the job is terminal — its SSE stream ends there —
// and returns the state GET /v1/jobs/{id} then reports.
func waitJob(t *testing.T, base, id string) string {
	t.Helper()
	if code, body := get(t, base+"/v1/jobs/"+id+"/events"); code != 200 {
		t.Fatalf("events: %d %q", code, body)
	}
	code, body := get(t, base+"/v1/jobs/"+id)
	if code != 200 {
		t.Fatalf("status: %d %q", code, body)
	}
	var st struct {
		State string `json:"state"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	return st.State
}

// TestSubmitAndMetrics drives one tiny job end to end and then checks
// that /metrics exposes the acceptance-critical families with the
// traffic visible in them.
func TestSubmitAndMetrics(t *testing.T) {
	_, ts := newTestServer(t)

	code, body := post(t, ts.URL+"/v1/jobs",
		`{"machine":{"processors":2},"workload":{"queries":["Q6"],"scale":0.001}}`)
	var sub struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal([]byte(body), &sub); err != nil {
		t.Fatal(err)
	}
	if code != 202 || sub.JobID == "" {
		t.Fatalf("submit: %d %q", code, body)
	}
	if st := waitJob(t, ts.URL, sub.JobID); st != "done" {
		t.Fatalf("job state = %s, want done", st)
	}

	code, body = get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{
		"dssmem_http_requests_total",
		"dssmem_http_request_seconds",
		"dssmem_runner_queue_depth",
		"dssmem_cache_hits_total",
		"dssmem_experiment_seconds",
		`dssmem_cluster_jobs{state="done"} 1`,
		`dssmem_http_requests_total{route="/v1/jobs",status="2xx"} 1`,
		"go_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(body, "dssmem_experiments_") {
		t.Error("/metrics still exposes the retired dssmem_experiments_* counters")
	}

	code, body = get(t, ts.URL+"/v1/stats")
	if code != 200 {
		t.Fatalf("/v1/stats: %d", code)
	}
	var stats struct {
		Uptime   float64 `json:"uptime_seconds"`
		Requests float64 `json:"requests_total"`
		HitRate  float64 `json:"cache_hit_rate"`
		Pool     any     `json:"pool"`
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("stats json: %v\n%s", err, body)
	}
	if stats.Uptime <= 0 {
		t.Errorf("uptime_seconds = %v, want > 0", stats.Uptime)
	}
	if stats.Requests == 0 {
		t.Error("requests_total = 0 after served traffic")
	}
	if stats.Pool == nil {
		t.Error("stats missing pool snapshot")
	}
	if strings.Contains(body, "experiments_") {
		t.Errorf("/v1/stats still carries experiments_* fields:\n%s", body)
	}
}

// TestJobsAPI drives the async job lifecycle end to end: accepted with
// an id, progress streamed over SSE, and a final report byte-identical
// to what the synchronous /v1/scenarios endpoint returns for the same
// spec.
func TestJobsAPI(t *testing.T) {
	_, ts := newTestServer(t)
	spec := `{
		"name": "async",
		"machine": {"processors": 2},
		"workload": {"queries": ["Q6"], "scale": 0.001},
		"sweep": {"axis": "prefetch", "points": [0, 2]}
	}`

	code, body := post(t, ts.URL+"/v1/jobs", spec)
	if code != 202 {
		t.Fatalf("submit: %d %q", code, body)
	}
	var sub struct {
		JobID string `json:"job_id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal([]byte(body), &sub); err != nil {
		t.Fatal(err)
	}
	if sub.JobID == "" || sub.State != "queued" {
		t.Fatalf("submit response = %+v", sub)
	}

	// The SSE stream ends when the job reaches a terminal state; its
	// replay semantics mean subscribing at any point sees every event.
	code, events := get(t, ts.URL+"/v1/jobs/"+sub.JobID+"/events")
	if code != 200 {
		t.Fatalf("events: %d", code)
	}
	if !strings.Contains(events, "event: progress") {
		t.Fatalf("SSE stream has no progress event:\n%s", events)
	}
	if !strings.Contains(events, "event: state") || !strings.Contains(events, `"state":"done"`) {
		t.Fatalf("SSE stream has no terminal done event:\n%s", events)
	}

	code, body = get(t, ts.URL+"/v1/jobs/"+sub.JobID)
	if code != 200 {
		t.Fatalf("status: %d %q", code, body)
	}
	var st struct {
		State    string `json:"state"`
		Progress struct {
			Done  int `json:"done"`
			Total int `json:"total"`
		} `json:"progress"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Progress.Done != 2 || st.Progress.Total != 2 {
		t.Fatalf("status = %+v, want done 2/2 (capture + one replay)", st)
	}

	code, asyncReport := get(t, ts.URL+"/v1/jobs/"+sub.JobID+"/report")
	if code != 200 {
		t.Fatalf("report: %d %q", code, asyncReport)
	}
	code, syncReport := post(t, ts.URL+"/v1/scenarios", spec)
	if code != 200 {
		t.Fatalf("sync render: %d", code)
	}
	if asyncReport != syncReport {
		t.Fatalf("async report differs from synchronous render:\n--- async ---\n%s\n--- sync ---\n%s",
			asyncReport, syncReport)
	}

	if code, _ := get(t, ts.URL+"/v1/jobs/nosuchjob"); code != 404 {
		t.Errorf("unknown job: got %d, want 404", code)
	}

	// The job counts are on /v1/stats, and they are all it says under
	// "cluster".
	code, body = get(t, ts.URL+"/v1/stats")
	if code != 200 {
		t.Fatalf("/v1/stats: %d", code)
	}
	var stats struct {
		Cluster map[string]json.RawMessage `json:"cluster"`
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("stats json: %v\n%s", err, body)
	}
	var jobs map[string]int
	if err := json.Unmarshal(stats.Cluster["jobs"], &jobs); err != nil || jobs["done"] < 1 || len(stats.Cluster) != 1 {
		t.Errorf("cluster stats = %s, want jobs alone with >=1 done", body)
	}

	// And the gauges behind it are on /metrics.
	_, exposition := get(t, ts.URL+"/metrics")
	if got := counterValue(t, exposition, `dssmem_cluster_jobs{state="done"}`); got < 1 {
		t.Errorf(`dssmem_cluster_jobs{state="done"} = %v, want >= 1`, got)
	}
	for _, gone := range []string{"dssmem_cluster_workers", "dssmem_cluster_tasks",
		"dssmem_cluster_lease_expirations_total", "dssmem_blob_peer_fetch_total"} {
		if strings.Contains(exposition, gone) {
			t.Errorf("/metrics still exposes %s", gone)
		}
	}
}

// TestRenderTimeout: with -render-timeout set, a synchronous render
// that exceeds it answers 504 instead of holding the connection, and
// the body names the job so the client polls instead of resubmitting:
// that job reaches done and serves its report.
func TestRenderTimeout(t *testing.T) {
	_, ts := newTestServerTimeout(t, time.Nanosecond)
	code, body := post(t, ts.URL+"/v1/scenarios",
		`{"machine": {"processors": 2}, "workload": {"queries": ["Q6"], "scale": 0.001}}`)
	if code != 504 || !strings.Contains(body, "render exceeded") {
		t.Fatalf("got %d %q, want 504 with the timeout notice", code, body)
	}
	var late struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal([]byte(body), &late); err != nil || late.JobID == "" {
		t.Fatalf("504 body %q names no job_id (%v)", body, err)
	}
	if st := waitJob(t, ts.URL, late.JobID); st != "done" {
		t.Fatalf("timed-out job settled %s, want done", st)
	}
	if code, report := get(t, ts.URL+"/v1/jobs/"+late.JobID+"/report"); code != 200 || !strings.Contains(report, "Execution time breakdown") {
		t.Errorf("report of the timed-out job: %d %q", code, report)
	}
}

// TestSubmitAfterDrain: once drain has closed the manager, both submit
// routes refuse with 503 — the manager is the only admission gate.
func TestSubmitAfterDrain(t *testing.T) {
	s, ts := newTestServer(t)
	s.drain()
	for _, route := range []string{"/v1/scenarios", "/v1/jobs"} {
		code, body := post(t, ts.URL+route, `{"workload": {"queries": ["Q6"], "scale": 0.001}}`)
		if code != 503 || !strings.Contains(body, "shutting down") {
			t.Errorf("POST %s after drain: %d %q, want 503", route, code, body)
		}
	}
}

// TestWALDirRestart: with -wal-dir, a restarted daemon over the same
// directory knows every accepted spec's job under its id and finishes
// it; a -wal-dir that cannot be a directory fails the boot.
func TestWALDirRestart(t *testing.T) {
	dir := t.TempDir()
	boot := func() (*server, *httptest.Server) {
		exec := experiments.NewExec(2)
		s, err := newServer(exec, metrics.New(), 0, dir)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.handler())
		t.Cleanup(func() {
			ts.Close()
			s.drain()
			exec.Close()
		})
		return s, ts
	}
	s, ts := boot()
	code, body := post(t, ts.URL+"/v1/jobs", `{"machine":{"processors":2},"workload":{"queries":["Q6"],"scale":0.001}}`)
	var sub struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal([]byte(body), &sub); err != nil || code != 202 {
		t.Fatalf("submit: %d %q", code, body)
	}
	if st := waitJob(t, ts.URL, sub.JobID); st != "done" {
		t.Fatalf("job state = %s, want done", st)
	}
	_, want := get(t, ts.URL+"/v1/jobs/"+sub.JobID+"/report")
	ts.Close()
	s.drain()

	_, ts = boot()
	if st := waitJob(t, ts.URL, sub.JobID); st != "done" {
		t.Fatalf("job %s after restart = %s, want done", sub.JobID, st)
	}
	if code, got := get(t, ts.URL+"/v1/jobs/"+sub.JobID+"/report"); code != 200 || got != want {
		t.Errorf("report after restart = %d, differs:\n%s\n--- before ---\n%s", code, got, want)
	}

	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	exec := experiments.NewExec(1)
	defer exec.Close()
	if _, err := newServer(exec, nil, 0, file); err == nil {
		t.Error("a -wal-dir that is a file booted")
	}
}
