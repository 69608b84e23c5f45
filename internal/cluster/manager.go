package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// Event is one entry of a job's progress stream, replayed to late
// subscribers and pushed live over SSE. Kinds: "progress" (one planned
// point settled — Key names it, Via says whether a cluster task or the
// local render settled it), "note" (advisory, e.g. a cluster task
// failed and the local render will recompute it), "state" (terminal
// job transition).
type Event struct {
	Seq   int    `json:"seq"`
	JobID string `json:"job_id"`
	Kind  string `json:"kind"`
	Key   string `json:"key,omitempty"`
	Via   string `json:"via,omitempty"`
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
// in the background while clients poll, stream events, and fetch the
// finished report. With a coordinator attached and workers live, a
// job's point plans are distributed first — then the local render
// (which resolves whatever the workers pushed into the shared store,
// and recomputes the rest) produces the authoritative report. Without
// a coordinator the manager is a plain async front on RenderScenario.
type Manager struct {
	exec  *experiments.Exec
	coord *Coordinator // nil = standalone
	met   *Metrics
	jl    *Journal // nil = not durable

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

// NewManager builds a manager over exec. coord may be nil
// (standalone); met may be nil (unmetered).
func NewManager(exec *experiments.Exec, coord *Coordinator, met *Metrics) *Manager {
	if met == nil {
		met = NewMetrics(nil)
	}
	return &Manager{exec: exec, coord: coord, met: met, jobs: make(map[string]*jobRec)}
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
// to re-run from scratch (it re-distributes its points, and whatever
// workers pushed to the shared store before the crash resolves by
// content-addressed key); its progress reads 0 of the spec's planned
// total until then. Event history is not persisted; terminal jobs get one
// synthetic state event so late subscribers still see an ending.
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
		m.met.moveJob("", j.state)
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
	m.met.moveJob("", StateQueued)
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
	m.met.moveJob(StateQueued, StateRunning)

	// Cluster phase: fan the point plans out to workers when any are
	// live. Task failures are advisory — the local render below is the
	// authoritative fallback and recomputes anything missing.
	if m.coord != nil && m.coord.Workers() > 0 {
		if plans, ok := experiments.PlanScenario(j.spec); ok {
			m.distribute(j, plans)
		}
	}

	// Local render: resolves worker-pushed blobs from the shared store,
	// computes the rest, and produces the report. The pool listener
	// attributes each settled planned key to this job's progress; it
	// runs under the pool's locks and takes only m.mu (lock order pool →
	// hub → manager), and every finished event of the render has been
	// delivered by the time RenderScenario returns.
	cancel := m.exec.Pool().Subscribe(func(ev runner.Event) {
		if ev.Kind == runner.JobFinished && keySet[ev.Key] &&
			(ev.State == runner.Done || ev.State == runner.Cached) {
			m.progress(j, ev.Key, "local")
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
	m.met.moveJob(StateRunning, final)
}

// distribute runs the job's plans through the coordinator, blocking
// until every task settles (bounded so a dead cluster cannot wedge the
// job — the janitor fails orphaned tasks, and the context is a
// backstop on top of that).
func (m *Manager) distribute(j *jobRec, plans []experiments.PointPlan) {
	captureTask := make(map[string]string, len(plans))
	tasks := make([]Task, 0, len(plans))
	for i, p := range plans {
		t := Task{ID: fmt.Sprintf("%s/t%d", j.id, i), Plan: p, Blobs: p.Blobs()}
		if p.IsCapture {
			captureTask[p.CaptureKey()] = t.ID
		} else if dep, ok := captureTask[p.CaptureKey()]; ok {
			t.Deps = []string{dep}
		}
		tasks = append(tasks, t)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Minute)
	defer cancel()
	err := m.coord.RunTasks(ctx, tasks, func(task Task, terr error) {
		if terr != nil {
			m.note(j, fmt.Sprintf("cluster task %s failed (%v); recomputing locally", task.ID, terr))
			return
		}
		m.progress(j, task.Plan.ResultKey(), "cluster")
	})
	if err != nil {
		m.note(j, "cluster phase incomplete: "+err.Error())
	}
}

// progress counts a settled planned key once, no matter how many
// submissions (cluster task, local render, cache hit) settle it.
func (m *Manager) progress(j *jobRec, key, via string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.seen[key] || j.state != StateRunning {
		return
	}
	j.seen[key] = true
	j.done = len(j.seen)
	m.publishLocked(j, Event{JobID: j.id, Kind: "progress", Key: key, Via: via,
		Done: j.done, Total: j.total})
}

func (m *Manager) note(j *jobRec, msg string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.publishLocked(j, Event{JobID: j.id, Kind: "note", Error: msg,
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
