package cluster

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// serveJobs mounts the manager's job routes as dssmemd does.
func serveJobs(t *testing.T, m *Manager) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", m.HandleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", m.HandleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", m.HandleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/report", m.HandleReport)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// call makes one request and returns its status and body.
func call(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// submitJSON posts a spec to /v1/jobs and returns the accepted id.
func submitJSON(t *testing.T, base, spec string) string {
	t.Helper()
	code, body := call(t, "POST", base+"/v1/jobs", spec)
	var sub struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal([]byte(body), &sub); err != nil || code != http.StatusAccepted || sub.JobID == "" {
		t.Fatalf("POST /v1/jobs = %d %q, want 202 with a job id", code, body)
	}
	return sub.JobID
}

const tinySpec = `{"name":"tiny","machine":{"processors":2},"workload":{"queries":["Q6"],"scale":0.001}}`

// TestAPISubmitErrors: a bad body or spec answers 400, a closed manager
// 503, and an unknown id 404 on every job route.
func TestAPISubmitErrors(t *testing.T) {
	exec := experiments.NewExec(1)
	defer exec.Close()
	m := newManager(t, exec, nil, "")
	ts := serveJobs(t, m)

	for _, bad := range []string{
		`{"workload":{"queries":["Q6"]},"bogus":1}`,       // unknown field
		`{"workload":{"queries":["Q99"]}}`,                // fails validation
		`{"workload":` + strings.Repeat(" ", 1<<20) + `}`, // over the 1 MB cap
	} {
		if code, body := call(t, "POST", ts.URL+"/v1/jobs", bad); code != http.StatusBadRequest {
			t.Errorf("POST %.40q = %d %q, want 400", bad, code, body)
		}
	}
	for _, route := range []string{"", "/events", "/report"} {
		if code, _ := call(t, "GET", ts.URL+"/v1/jobs/j-nosuch"+route, ""); code != http.StatusNotFound {
			t.Errorf("GET /v1/jobs/j-nosuch%s = %d, want 404", route, code)
		}
	}
	m.Close()
	if code, body := call(t, "POST", ts.URL+"/v1/jobs", tinySpec); code != http.StatusServiceUnavailable || !strings.Contains(body, "shutting down") {
		t.Errorf("POST after Close = %d %q, want 503", code, body)
	}
}

// TestAPIDoneJob: resubmitting a done job's spec answers with that job,
// done; its status and report answer 200, and its event stream replays
// to the terminal event and closes.
func TestAPIDoneJob(t *testing.T) {
	if testing.Short() {
		t.Skip("renders a real scenario")
	}
	exec := experiments.NewExec(2)
	defer exec.Close()
	m := newManager(t, exec, nil, "")
	defer m.Close()
	ts := serveJobs(t, m)

	id := submitJSON(t, ts.URL, tinySpec)
	finish(t, m, id)
	if code, body := call(t, "POST", ts.URL+"/v1/jobs", tinySpec); code != http.StatusAccepted ||
		body != `{"job_id":"`+id+`","state":"done"}`+"\n" {
		t.Errorf("resubmission = %d %q, want 202 naming the done job", code, body)
	}
	code, events := call(t, "GET", ts.URL+"/v1/jobs/"+id+"/events", "")
	if code != http.StatusOK || !strings.Contains(events, "event: progress") ||
		!strings.HasSuffix(events, `"done":1,"total":1,"state":"done"}`+"\n\n") {
		t.Fatalf("events of a done job = %d:\n%s", code, events)
	}
	if code, body := call(t, "GET", ts.URL+"/v1/jobs/"+id, ""); code != http.StatusOK || !strings.Contains(body, `"state":"done"`) {
		t.Errorf("status = %d %q", code, body)
	}
	code, body := call(t, "GET", ts.URL+"/v1/jobs/"+id+"/report", "")
	var rep struct{ Name, Preset, Hash, Report string }
	if err := json.Unmarshal([]byte(body), &rep); err != nil || code != http.StatusOK ||
		rep.Name != "tiny" || rep.Preset != "custom" || !strings.HasPrefix(rep.Report, "Scenario tiny (") {
		t.Errorf("report = %d %q", code, body)
	}
}

// TestAPIRunningThenFailed: while a job runs its report answers 409 and
// its event stream stays open; once it fails the stream ends on the
// failed state and the report answers 500.
func TestAPIRunningThenFailed(t *testing.T) {
	release := make(chan struct{})
	exec := experiments.NewExecConfig(runner.Config{Workers: 1,
		Factory: func(scenario.Scenario) (*core.System, error) {
			<-release
			return nil, errors.New("no system for this test")
		}})
	defer exec.Close()
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock() // before exec.Close, should the test stop early
	m := newManager(t, exec, nil, "")
	defer m.Close()
	ts := serveJobs(t, m)

	id := submitJSON(t, ts.URL, tinySpec)
	waitFor(t, time.Minute, "job to run", func() bool {
		return exec.Pool().Stats().Running == 1
	})
	if code, body := call(t, "GET", ts.URL+"/v1/jobs/"+id+"/report", ""); code != http.StatusConflict {
		t.Errorf("report of a running job = %d %q, want 409", code, body)
	}
	streamed := make(chan string, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
		if err != nil {
			streamed <- err.Error()
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		streamed <- string(b)
	}()
	waitFor(t, time.Minute, "event subscriber", func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		return len(m.jobs[id].subs) == 1
	})
	unblock()
	if events := <-streamed; !strings.Contains(events, `"state":"failed"`) || !strings.Contains(events, "no system for this test") {
		t.Errorf("live events = %q, want the failed transition", events)
	}
	if code, body := call(t, "GET", ts.URL+"/v1/jobs/"+id+"/report", ""); code != http.StatusInternalServerError || !strings.Contains(body, "no system") {
		t.Errorf("report of a failed job = %d %q, want 500", code, body)
	}
}
