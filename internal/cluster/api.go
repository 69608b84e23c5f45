package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/scenario"
)

// Wire types of the coordinator protocol (POST /v1/cluster/*).
type registerRequest struct {
	Name string `json:"name,omitempty"`
	URL  string `json:"url,omitempty"`
}
type registerResponse struct {
	WorkerID       string `json:"worker_id"`
	LeaseTTLMillis int64  `json:"lease_ttl_ms"`
}
type claimRequest struct {
	WorkerID string `json:"worker_id"`
}
type claimResponse struct {
	Task *Task `json:"task"`
}
type renewRequest struct {
	WorkerID string `json:"worker_id"`
	TaskID   string `json:"task_id"`
}
type completeRequest struct {
	WorkerID string `json:"worker_id"`
	TaskID   string `json:"task_id"`
	Error    string `json:"error,omitempty"`
}
type releaseRequest = renewRequest
type leaveRequest = claimRequest

// Handler serves the coordinator protocol plus a status view:
//
//	POST /v1/cluster/register   {name,url} -> {worker_id,lease_ttl_ms}
//	POST /v1/cluster/claim      {worker_id} -> {task} | 204 when idle
//	POST /v1/cluster/renew      {worker_id,task_id}
//	POST /v1/cluster/complete   {worker_id,task_id,error?}
//	POST /v1/cluster/release    {worker_id,task_id}
//	POST /v1/cluster/leave      {worker_id}
//	GET  /v1/cluster            Status snapshot
//
// Claim, renew and complete are also a worker's heartbeat. Unknown
// workers get 410 Gone (re-register); lost leases get 409 Conflict
// (drop the task).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/register", func(w http.ResponseWriter, r *http.Request) {
		var req registerRequest
		if !decodeInto(w, r, &req) {
			return
		}
		id, ttl := c.Register(req.Name, req.URL)
		writeJSON(w, http.StatusOK, registerResponse{WorkerID: id, LeaseTTLMillis: ttl.Milliseconds()})
	})
	mux.HandleFunc("POST /v1/cluster/claim", func(w http.ResponseWriter, r *http.Request) {
		var req claimRequest
		if !decodeInto(w, r, &req) {
			return
		}
		task, err := c.Claim(req.WorkerID)
		if err != nil {
			protocolReply(w, err)
			return
		}
		if task == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, http.StatusOK, claimResponse{Task: task})
	})
	mux.HandleFunc("POST /v1/cluster/renew", func(w http.ResponseWriter, r *http.Request) {
		var req renewRequest
		if !decodeInto(w, r, &req) {
			return
		}
		protocolReply(w, c.Renew(req.WorkerID, req.TaskID))
	})
	mux.HandleFunc("POST /v1/cluster/complete", func(w http.ResponseWriter, r *http.Request) {
		var req completeRequest
		if !decodeInto(w, r, &req) {
			return
		}
		protocolReply(w, c.Complete(req.WorkerID, req.TaskID, req.Error))
	})
	mux.HandleFunc("POST /v1/cluster/release", func(w http.ResponseWriter, r *http.Request) {
		var req releaseRequest
		if !decodeInto(w, r, &req) {
			return
		}
		protocolReply(w, c.Release(req.WorkerID, req.TaskID))
	})
	mux.HandleFunc("POST /v1/cluster/leave", func(w http.ResponseWriter, r *http.Request) {
		var req leaveRequest
		if !decodeInto(w, r, &req) {
			return
		}
		c.Leave(req.WorkerID)
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Status())
	})
	return mux
}

// protocolReply maps coordinator errors onto the protocol's status
// codes: nil -> 204, ErrUnknownWorker -> 410, ErrNotHolder -> 409.
func protocolReply(w http.ResponseWriter, err error) {
	switch {
	case err == nil:
		w.WriteHeader(http.StatusNoContent)
	case errors.Is(err, ErrUnknownWorker):
		apiError(w, http.StatusGone, err.Error())
	case errors.Is(err, ErrNotHolder):
		apiError(w, http.StatusConflict, err.Error())
	default:
		apiError(w, http.StatusInternalServerError, err.Error())
	}
}

// SubmitBody is the one way a spec enters the daemon: read the request
// body (1 MB cap), decode and validate it as a scenario spec, and
// submit it as a job. On failure it has already answered — 400 for a
// bad spec, 503 when the manager is shutting down — and ok is false.
func (m *Manager) SubmitBody(w http.ResponseWriter, r *http.Request) (id string, ok bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		apiError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return "", false
	}
	sc, err := scenario.Decode(body)
	if err != nil {
		apiError(w, http.StatusBadRequest, err.Error())
		return "", false
	}
	if err := sc.Validate(); err != nil {
		apiError(w, http.StatusBadRequest, err.Error())
		return "", false
	}
	id, err = m.Submit(*sc)
	if err != nil {
		apiError(w, http.StatusServiceUnavailable, err.Error())
		return "", false
	}
	return id, true
}

// HandleSubmit is POST /v1/jobs: a scenario spec body accepted as an
// async job — 202 with the id to poll.
func (m *Manager) HandleSubmit(w http.ResponseWriter, r *http.Request) {
	if id, ok := m.SubmitBody(w, r); ok {
		writeJSON(w, http.StatusAccepted, map[string]string{"job_id": id, "state": StateQueued})
	}
}

// HandleStatus is GET /v1/jobs/{id}.
func (m *Manager) HandleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := m.Status(r.PathValue("id"))
	if !ok {
		apiError(w, http.StatusNotFound, "no job "+r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// HandleEvents is GET /v1/jobs/{id}/events: the job's progress stream
// as server-sent events — the replay of everything published so far,
// then live events until the job reaches a terminal state (or the
// client goes away).
func (m *Manager) HandleEvents(w http.ResponseWriter, r *http.Request) {
	replay, live, cancel, ok := m.Subscribe(r.PathValue("id"))
	if !ok {
		apiError(w, http.StatusNotFound, "no job "+r.PathValue("id"))
		return
	}
	defer cancel()
	fl, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	send := func(ev Event) {
		b, err := json.Marshal(ev)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Kind, b)
	}
	flush := func() {
		if fl != nil {
			fl.Flush()
		}
	}
	for _, ev := range replay {
		send(ev)
	}
	flush()
	for {
		select {
		case ev, open := <-live:
			// One flush per burst: write every event already queued,
			// then flush once.
			for open {
				send(ev)
				if len(live) == 0 {
					break
				}
				ev, open = <-live
			}
			flush()
			if !open {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// HandleReport is GET /v1/jobs/{id}/report.
func (m *Manager) HandleReport(w http.ResponseWriter, r *http.Request) {
	m.WriteReport(w, r.PathValue("id"))
}

// WriteReport answers with job id's finished report — the one payload
// both GET /v1/jobs/{id}/report and the synchronous POST /v1/scenarios
// serve — and returns the spec's preset label. 404 for an unknown id,
// 409 while the job is still in flight, 500 when it failed; ok is true
// only for the 200.
func (m *Manager) WriteReport(w http.ResponseWriter, id string) (preset string, ok bool) {
	report, spec, preset, found, err := m.Report(id)
	if !found {
		apiError(w, http.StatusNotFound, "no job "+id)
		return "", false
	}
	if err != nil {
		code := http.StatusConflict
		if st, _ := m.Status(id); st.State == StateFailed {
			code = http.StatusInternalServerError
		}
		apiError(w, code, err.Error())
		return preset, false
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"name":   spec.Name,
		"preset": preset,
		"hash":   spec.Hash(),
		"report": report,
	})
	return preset, true
}

func decodeInto(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(v); err != nil {
		apiError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func apiError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
