package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/scenario"
)

// SubmitBody is the one way a spec enters the daemon: read the request
// body (1 MB cap), decode and validate it as a scenario spec, and
// submit it as a job. On failure it has already answered — 400 for a
// bad spec, 503 when the manager is shutting down or cannot store the
// spec — and ok is false. state is the job's as the submission found
// it: queued for a new job, the existing job's for a resubmitted spec.
func (m *Manager) SubmitBody(w http.ResponseWriter, r *http.Request) (id, state string, ok bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		apiError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return "", "", false
	}
	sc, err := scenario.Decode(body)
	if err != nil {
		apiError(w, http.StatusBadRequest, err.Error())
		return "", "", false
	}
	if err := sc.Validate(); err != nil {
		apiError(w, http.StatusBadRequest, err.Error())
		return "", "", false
	}
	id, state, err = m.Submit(*sc)
	if err != nil {
		apiError(w, http.StatusServiceUnavailable, err.Error())
		return "", "", false
	}
	return id, state, true
}

// HandleSubmit is POST /v1/jobs: a scenario spec body accepted as an
// async job — 202 with the id to poll and the job's state, which for a
// resubmitted spec may already be done.
func (m *Manager) HandleSubmit(w http.ResponseWriter, r *http.Request) {
	if id, state, ok := m.SubmitBody(w, r); ok {
		writeJSON(w, http.StatusAccepted, map[string]string{"job_id": id, "state": state})
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

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func apiError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
