package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/blobstore"
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
// poll, stream events, and fetch the finished report. A job is its spec
// (see the package doc).
type Manager struct {
	exec   *experiments.Exec
	gauges map[string]*metrics.Gauge // dssmem_cluster_jobs{state}
	specs  *blobstore.LocalDir       // nil = jobs live in memory only

	mu     sync.Mutex
	jobs   map[string]*jobRec
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
	done    int             // settled points (seen's size)
	seen    map[string]bool // progress keys already counted
	events  []Event
	subs    map[int]chan Event
	nextSub int
	seq     int
}

// specExt names a stored spec's file: <job id>.json.
const specExt = ".json"

// NewManager builds a manager over exec, registering the job family on
// reg (nil = unmetered). The per-state children are created eagerly so
// every state is visible on /metrics from the first scrape. With dir
// set, accepted specs are stored there, and every spec already in it is
// re-queued under its id before NewManager returns. A stored spec that
// no longer decodes, or whose bytes do not hash to its file name, comes
// back as a failed job under that id.
func NewManager(exec *experiments.Exec, reg *metrics.Registry, dir string) (*Manager, error) {
	vec := reg.GaugeVec("dssmem_cluster_jobs", "Async jobs by lifecycle state.", "state")
	m := &Manager{exec: exec, jobs: make(map[string]*jobRec), gauges: make(map[string]*metrics.Gauge)}
	for _, st := range []string{StateQueued, StateRunning, StateDone, StateFailed} {
		m.gauges[st] = vec.With(st)
	}
	if dir == "" {
		return m, nil
	}
	m.specs = blobstore.NewLocalDir()
	if err := m.specs.Mount(blobstore.NSSpec, dir, specExt); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range ents {
		id, ok := strings.CutSuffix(e.Name(), specExt)
		if !ok || e.IsDir() {
			continue // the store's temp files, or not the store's
		}
		submitted := time.Now()
		if info, err := e.Info(); err == nil {
			submitted = info.ModTime()
		}
		sc, err := m.loadSpec(id)
		j := newJob(id, sc, submitted)
		if err != nil {
			j.state, j.errText, j.finished = StateFailed, err.Error(), time.Now()
			m.publishLocked(j, Event{JobID: id, Kind: "state", State: StateFailed, Error: j.errText})
			m.jobs[id] = j
			m.moveJob("", StateFailed)
			continue
		}
		m.startLocked(j)
	}
	return m, nil
}

// loadSpec reads a stored spec back: its bytes must hash to its id,
// and decode and validate as a spec.
func (m *Manager) loadSpec(id string) (scenario.Scenario, error) {
	b, err := m.specs.Get(blobstore.NSSpec, id)
	if err != nil {
		return scenario.Scenario{}, fmt.Errorf("stored spec unreadable: %w", err)
	}
	if jobID(b) != id {
		return scenario.Scenario{}, errors.New("stored spec does not hash to its job id")
	}
	sc, err := scenario.Decode(b)
	if err == nil {
		err = sc.Validate()
	}
	if err != nil {
		return scenario.Scenario{}, fmt.Errorf("stored spec no longer decodes: %w", err)
	}
	return *sc, nil
}

// specBytes is a spec as the store holds it and its id hashes it: the
// canonical encoding with the name as its first field. Canonical leaves
// the name out, but the report header prints it, so two specs that
// differ only in name are two jobs.
func specBytes(sc *scenario.Scenario) []byte {
	name, _ := json.Marshal(sc.Name) // a string always marshals
	c := sc.Canonical()
	b := append([]byte(`{"name":`), name...)
	b = append(b, ',')
	return append(b, c[1:]...)
}

// jobID is the content address of a spec's stored bytes.
func jobID(spec []byte) string {
	sum := sha256.Sum256(spec)
	return "j-" + hex.EncodeToString(sum[:])
}

func newJob(id string, sc scenario.Scenario, submitted time.Time) *jobRec {
	return &jobRec{
		id: id, spec: sc, preset: experiments.ScenarioLabel(sc),
		state: StateQueued, submitted: submitted,
		seen: make(map[string]bool), subs: make(map[int]chan Event),
	}
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

// Submit accepts a validated spec as an async job and returns its id
// and its state as the submission found it. A spec that already has a
// queued, running or done job gets that job back, with nothing run or
// written; a spec whose job failed re-runs under the same id. A new
// job's spec is stored, durably, before its id is returned, and its
// state is queued.
func (m *Manager) Submit(sc scenario.Scenario) (id, state string, err error) {
	b := specBytes(&sc)
	id = jobID(b)
	m.mu.Lock()
	state, err = m.admitLocked(id)
	m.mu.Unlock()
	if state != "" || err != nil {
		return id, state, err
	}
	if m.specs != nil {
		// Concurrent first submissions of one spec may each write it:
		// the bytes are equal, and the store's writes are atomic.
		if err := m.specs.Put(blobstore.NSSpec, id, b); err != nil {
			return "", "", fmt.Errorf("cluster: storing the spec: %w", err)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if state, err = m.admitLocked(id); state != "" || err != nil {
		return id, state, err // a concurrent submission of this spec won
	}
	m.startLocked(newJob(id, sc, time.Now()))
	return id, StateQueued, nil
}

// admitLocked returns the state of the job a submission under id gets
// back, "" when the submission must start one (no job, or a failed
// one), or an error once the manager is closed. Caller holds m.mu.
func (m *Manager) admitLocked(id string) (string, error) {
	if m.closed {
		return "", errors.New("cluster: manager is shutting down")
	}
	if j := m.jobs[id]; j != nil && j.state != StateFailed {
		return j.state, nil
	}
	return "", nil
}

// startLocked installs j, replacing a failed job under its id, and
// runs it. Caller holds m.mu.
func (m *Manager) startLocked(j *jobRec) {
	if old := m.jobs[j.id]; old != nil {
		m.moveJob(old.state, "")
	}
	m.jobs[j.id] = j
	m.moveJob("", StateQueued)
	m.wg.Add(1)
	go m.run(j)
}

func (m *Manager) run(j *jobRec) {
	defer m.wg.Done()
	keys := experiments.ProgressKeys(j.spec)
	keySet := make(map[string]bool, len(keys))
	for _, k := range keys {
		keySet[k] = true
	}
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

	m.mu.Lock()
	j.finished = time.Now()
	final := StateDone
	if err != nil {
		final, j.errText = StateFailed, err.Error()
	} else {
		j.report = buf.String()
	}
	j.state = final
	m.publishLocked(j, Event{JobID: j.id, Kind: "state", Done: j.done,
		Total: j.total, State: final, Error: j.errText})
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
