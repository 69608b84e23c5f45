package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// Event is one entry of a job's progress stream, replayed to late
// subscribers and pushed live over SSE. Kinds: "progress" (one planned
// point settled — Key names it) and "state" (terminal job transition).
type Event struct {
	Seq   int    `json:"seq"`
	JobID string `json:"job_id"`
	Kind  string `json:"kind"`
	Key   string `json:"key,omitempty"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
}

// JobStatus is the GET /v1/jobs/{id} view.
type JobStatus struct {
	JobID     string    `json:"job_id"`
	Name      string    `json:"name,omitempty"`
	Preset    string    `json:"preset"`
	Hash      string    `json:"hash"`
	State     string    `json:"state"`
	Error     string    `json:"error,omitempty"`
	Progress  Progress  `json:"progress"`
	Submitted time.Time `json:"submitted"`
	Finished  time.Time `json:"finished,omitempty"`
}

// Progress counts settled sweep points against the plan.
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Manager owns the async job API: scenarios submitted as jobs render
// in the background (RenderScenario on the daemon's Exec) while clients
// poll, stream events, and fetch the finished report.
type Manager struct {
	exec   *experiments.Exec
	gauges map[string]*metrics.Gauge // dssmem_cluster_jobs{state}
	jl     *Journal                  // nil = not durable

	mu     sync.Mutex
	jobs   map[string]*jobRec
	next   int
	closed bool
	wg     sync.WaitGroup
}

type jobRec struct {
	id        string
	spec      scenario.Scenario
	preset    string
	state     string
	errText   string
	report    string
	submitted time.Time
	finished  time.Time

	total   int
	done    int             // settled points (seen's size, or recovered)
	seen    map[string]bool // progress keys already counted
	events  []Event
	subs    map[int]chan Event
	nextSub int
	seq     int
}

// NewManager builds a manager over exec, registering the job family on
// reg (nil = unmetered). The per-state children are created eagerly so
// every state is visible on /metrics from the first scrape.
func NewManager(exec *experiments.Exec, reg *metrics.Registry) *Manager {
	vec := reg.GaugeVec("dssmem_cluster_jobs", "Async jobs by lifecycle state.", "state")
	m := &Manager{exec: exec, jobs: make(map[string]*jobRec), gauges: make(map[string]*metrics.Gauge)}
	for _, st := range []string{StateQueued, StateRunning, StateDone, StateFailed} {
		m.gauges[st] = vec.With(st)
	}
	return m
}

// moveJob shifts one job between state gauges ("" = no gauge).
func (m *Manager) moveJob(from, to string) {
	if from != "" {
		m.gauges[from].Dec()
	}
	if to != "" {
		m.gauges[to].Inc()
	}
}

// Close refuses new submissions and waits for running jobs to finish.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.wg.Wait()
}

// UseJournal makes the manager durable: each job appends two records
// to jl — its submission and its terminal transition — and Restore
// replays them after a restart.
// Call before the first Submit or Restore.
func (m *Manager) UseJournal(jl *Journal) { m.jl = jl }

// Restore installs journal-recovered jobs. Terminal jobs come back
// whole — state, error, report, progress — and keep serving status and
// report reads; anything that had not finished is re-queued for Resume
// to re-run from scratch (every point the persistent cache tiers held
// at the crash resolves by content-addressed key); its progress reads 0
// of the spec's planned total until then. Event history is not
// persisted; terminal jobs get one synthetic state event so late
// subscribers still see an ending.
func (m *Manager) Restore(rec *Recovered) {
	if rec == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rj := range rec.Jobs {
		if rj.ID == "" || m.jobs[rj.ID] != nil {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(rj.ID, "j-%d", &n); err == nil && n > m.next {
			m.next = n
		}
		j := &jobRec{
			id: rj.ID, state: StateQueued, submitted: rj.Submitted,
			seen: make(map[string]bool),
			subs: make(map[int]chan Event),
		}
		if sc, err := scenario.Decode([]byte(rj.Spec)); err != nil {
			// The WAL's CRC vouches for these bytes, so a decode failure
			// means the spec grammar changed underneath the log. Surface
			// it as a failed job rather than dropping the id.
			j.state = StateFailed
			j.errText = "recovered job spec no longer decodes: " + err.Error()
			j.finished = time.Now()
		} else {
			j.spec = *sc
			j.preset = experiments.ScenarioLabel(*sc)
			if rj.State == StateDone || rj.State == StateFailed {
				j.state = rj.State
				j.errText = rj.Error
				j.report = rj.Report
				j.done, j.total = rj.Done, rj.Total
				j.finished = rj.Finished
			} else {
				// No record carries an unfinished job's total; the
				// spec's plan does.
				j.total = len(experiments.ProgressKeys(j.spec))
			}
		}
		if j.state == StateDone || j.state == StateFailed {
			m.publishLocked(j, Event{JobID: j.id, Kind: "state", Done: j.done,
				Total: j.total, State: j.state, Error: j.errText})
		}
		m.jobs[j.id] = j
		m.moveJob("", j.state)
	}
}

// Resume re-runs every restored job that had not finished, in log
// order. Call after Restore — and after the boot snapshot, so the
// re-run's transitions land in the compacted log's fresh segment.
func (m *Manager) Resume(rec *Recovered) {
	if rec == nil {
		return
	}
	m.mu.Lock()
	var pend []*jobRec
	for _, rj := range rec.Jobs {
		j := m.jobs[rj.ID]
		if j == nil || j.state != StateQueued {
			continue
		}
		m.wg.Add(1)
		pend = append(pend, j)
	}
	m.mu.Unlock()
	for _, j := range pend {
		go m.run(j)
	}
}

// Submit accepts a validated spec as an async job and returns its id.
func (m *Manager) Submit(sc scenario.Scenario) (string, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return "", errors.New("cluster: manager is shutting down")
	}
	m.next++
	j := &jobRec{
		id:        fmt.Sprintf("j-%d", m.next),
		spec:      sc,
		preset:    experiments.ScenarioLabel(sc),
		state:     StateQueued,
		submitted: time.Now(),
		seen:      make(map[string]bool),
		subs:      make(map[int]chan Event),
	}
	m.jobs[j.id] = j
	m.wg.Add(1)
	m.mu.Unlock()
	m.moveJob("", StateQueued)
	// Journal before the id escapes to the client: a crash after this
	// append replays the submission; a crash before it means the caller
	// never saw the id accepted.
	m.jl.append(journalRecord{Kind: recJobSubmit, Job: j.id, Name: sc.Name,
		Spec: string(j.spec.Canonical()), Submitted: j.submitted})
	go m.run(j)
	return j.id, nil
}

func (m *Manager) run(j *jobRec) {
	defer m.wg.Done()
	keys := experiments.ProgressKeys(j.spec)
	keySet := make(map[string]bool, len(keys))
	for _, k := range keys {
		keySet[k] = true
	}
	// The running transition is not journaled: recovery re-runs a
	// running job exactly like a queued one, and the total it would
	// carry is recomputed from the spec.
	m.mu.Lock()
	j.state = StateRunning
	j.total = len(keys)
	m.mu.Unlock()
	m.moveJob(StateQueued, StateRunning)

	// The render resolves cached points and computes the rest. The pool
	// listener attributes each settled planned key to this job's
	// progress; it runs under the pool's locks and takes only m.mu (lock
	// order pool → hub → manager), and every finished event of the
	// render has been delivered by the time RenderScenario returns.
	cancel := m.exec.Pool().Subscribe(func(ev runner.Event) {
		if ev.Kind == runner.JobFinished && keySet[ev.Key] &&
			(ev.State == runner.Done || ev.State == runner.Cached) {
			m.progress(j, ev.Key)
		}
	})
	var buf strings.Builder
	err := m.exec.RenderScenario(&buf, j.spec)
	cancel()

	finished := time.Now()
	final := StateDone
	var errText, report string
	if err != nil {
		final = StateFailed
		errText = err.Error()
	} else {
		report = buf.String()
	}
	// Write ahead: the terminal record (which carries the report text,
	// so a restarted daemon serves pre-crash reports straight from the
	// journal) must be durable before the state flip is observable — a
	// crash in between must resurrect the job, never lose a finish the
	// client already saw. j.done is stable here: the pool listener is
	// cancelled, and cancel returns only once no call is in flight.
	m.jl.append(journalRecord{Kind: recJobState, Job: j.id, State: final,
		Error: errText, Report: report, Done: j.done, Total: j.total,
		Finished: finished})

	m.mu.Lock()
	j.finished = finished
	j.state = final
	j.errText = errText
	j.report = report
	m.publishLocked(j, Event{JobID: j.id, Kind: "state", Done: j.done,
		Total: j.total, State: final, Error: errText})
	for id, sub := range j.subs {
		close(sub)
		delete(j.subs, id)
	}
	m.mu.Unlock()
	m.moveJob(StateRunning, final)
}

// progress counts a settled planned key once, no matter how many
// submissions (this render, an overlapping job's, a cache hit) settle
// it.
func (m *Manager) progress(j *jobRec, key string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.seen[key] || j.state != StateRunning {
		return
	}
	j.seen[key] = true
	j.done = len(j.seen)
	m.publishLocked(j, Event{JobID: j.id, Kind: "progress", Key: key,
		Done: j.done, Total: j.total})
}

// publishLocked appends to the job's replay log and pushes to live
// subscribers (non-blocking: a stalled SSE client drops events rather
// than wedging the job).
func (m *Manager) publishLocked(j *jobRec, ev Event) {
	j.seq++
	ev.Seq = j.seq
	j.events = append(j.events, ev)
	for _, sub := range j.subs {
		select {
		case sub <- ev:
		default:
		}
	}
}

// Status returns the job's current lifecycle view.
func (m *Manager) Status(id string) (JobStatus, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return JobStatus{
		JobID: j.id, Name: j.spec.Name, Preset: j.preset, Hash: j.spec.Hash(),
		State: j.state, Error: j.errText,
		Progress:  Progress{Done: j.done, Total: j.total},
		Submitted: j.submitted, Finished: j.finished,
	}, true
}

// Report returns the finished report. ok=false for unknown ids; for
// known jobs err is non-nil until the job is done (or if it failed).
func (m *Manager) Report(id string) (report string, spec scenario.Scenario, preset string, ok bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, jok := m.jobs[id]
	if !jok {
		return "", scenario.Scenario{}, "", false, nil
	}
	switch j.state {
	case StateDone:
		return j.report, j.spec, j.preset, true, nil
	case StateFailed:
		return "", j.spec, j.preset, true, errors.New(j.errText)
	default:
		return "", j.spec, j.preset, true, fmt.Errorf("job %s is %s", id, j.state)
	}
}

// Subscribe attaches to a job's event stream: the replay of everything
// published so far plus a live channel. Terminal jobs get a closed
// channel (replay only). cancel detaches.
func (m *Manager) Subscribe(id string) (replay []Event, live <-chan Event, cancel func(), ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, jok := m.jobs[id]
	if !jok {
		return nil, nil, nil, false
	}
	replay = append([]Event(nil), j.events...)
	ch := make(chan Event, 64)
	if j.state == StateDone || j.state == StateFailed {
		close(ch)
		return replay, ch, func() {}, true
	}
	j.nextSub++
	sub := j.nextSub
	j.subs[sub] = ch
	return replay, ch, func() {
		m.mu.Lock()
		if c, sok := j.subs[sub]; sok {
			delete(j.subs, sub)
			close(c)
		}
		m.mu.Unlock()
	}, true
}

// Wait blocks until job id reaches a terminal state. It reports false
// when ctx ends first (the job keeps running) or the id is unknown.
func (m *Manager) Wait(ctx context.Context, id string) bool {
	_, live, cancel, ok := m.Subscribe(id)
	if !ok {
		return false
	}
	defer cancel()
	for {
		select {
		case _, open := <-live:
			if !open { // closed on the terminal transition
				return true
			}
		case <-ctx.Done():
			return false
		}
	}
}

// Counts reports jobs by state, for /v1/stats.
func (m *Manager) Counts() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := map[string]int{StateQueued: 0, StateRunning: 0, StateDone: 0, StateFailed: 0}
	for _, j := range m.jobs {
		c[j.state]++
	}
	return c
}
