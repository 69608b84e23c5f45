package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/experiments"
)

// Protocol errors. The HTTP layer maps ErrUnknownWorker to 410 Gone
// (the worker re-registers) and ErrNotHolder to 409 Conflict (the
// lease moved on; the worker drops the task).
var (
	ErrUnknownWorker = errors.New("cluster: unknown worker")
	ErrNotHolder     = errors.New("cluster: worker does not hold this task's lease")
)

// Task is one distribution unit: a capture or replay point of a
// scenario, self-contained as data (experiments.PointPlan) so any
// worker can reconstruct the jobs. Deps name tasks of the same batch
// that must be done first — replays depend on their capture, so its
// blobs are in the shared store before any peer replays them. Blobs
// lists what the worker pushes to the coordinator on completion.
type Task struct {
	ID    string                `json:"id"`
	Plan  experiments.PointPlan `json:"plan"`
	Deps  []string              `json:"deps,omitempty"`
	Blobs []experiments.BlobRef `json:"blobs,omitempty"`
}

// Options tunes a Coordinator. The zero value gives production
// defaults; tests shrink the TTL to exercise expiry quickly.
type Options struct {
	// LeaseTTL is how long a claimed task stays leased without a renew
	// before the janitor reassigns it (default 15s). Worker liveness
	// uses 3x this: a worker silent for that long is deregistered.
	LeaseTTL time.Duration
	// MaxAttempts is how many times a task may be claimed before a
	// further failure or expiry is terminal (default 3).
	MaxAttempts int
}

func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 15 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	return o
}

// Coordinator owns worker registrations and the task queue. It holds
// no compute of its own: callers enqueue batches with RunTasks, and
// workers drive Claim/Renew/Complete (over HTTP via api.go, or
// directly in process). A janitor goroutine reaps expired leases and
// dead workers so a lost worker delays a task by at most one TTL.
//
// Workers and tasks are soft state: nothing here is journaled, and a
// restarted daemon starts with an empty queue. A resumed job re-plans
// and re-distributes its points, and whatever a worker already pushed
// resolves from the shared store by its content-addressed key.
type Coordinator struct {
	opt Options
	met *Metrics
	// incarnation is this coordinator's start time, part of every
	// worker id it grants, so a pre-restart worker's id is unknown to
	// its successor (410: re-register) and never granted again.
	incarnation string

	mu      sync.Mutex
	workers map[string]*workerRec
	tasks   map[string]*taskRec
	queue   []string // FIFO claim order; settled tasks are skipped
	nextW   int
	closed  bool
	stop    chan struct{}
}

type workerRec struct {
	id       string
	name     string
	url      string
	lastBeat time.Time
	done     int // tasks completed successfully
}

type taskRec struct {
	task     Task
	state    string // StateQueued | StateLeased | StateDone | StateFailed
	worker   string
	lease    time.Time // expiry while leased
	queuedAt time.Time
	attempts int
	errText  string
	batch    *taskBatch
}

// taskBatch tracks one RunTasks call. onDone runs outside the
// coordinator lock, once per task, as each reaches a terminal state.
type taskBatch struct {
	remaining int
	firstErr  error
	onDone    func(Task, error)
	doneCh    chan struct{}
}

// NewCoordinator starts a coordinator (and its janitor). met must come
// from NewMetrics; pass NewMetrics(nil) for an unmetered one.
func NewCoordinator(met *Metrics, opt Options) *Coordinator {
	if met == nil {
		met = NewMetrics(nil)
	}
	c := &Coordinator{
		opt:         opt.withDefaults(),
		met:         met,
		incarnation: strconv.FormatInt(time.Now().UnixNano(), 36),
		workers:     make(map[string]*workerRec),
		tasks:       make(map[string]*taskRec),
		stop:        make(chan struct{}),
	}
	go c.janitor()
	return c
}

// Close stops the janitor and fails every unsettled task.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.stop)
	var notify []func()
	for _, rec := range c.tasks {
		if rec.state == StateQueued || rec.state == StateLeased {
			notify = append(notify, c.settleLocked(rec, StateFailed, "coordinator shut down"))
		}
	}
	c.mu.Unlock()
	for _, fn := range notify {
		fn()
	}
}

// Register adds (or re-adds) a worker and returns its id and the lease
// TTL it must renew within.
func (c *Coordinator) Register(name, url string) (string, time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextW++
	id := fmt.Sprintf("w%d-%s", c.nextW, c.incarnation)
	if name == "" {
		name = id
	}
	c.workers[id] = &workerRec{id: id, name: name, url: url, lastBeat: time.Now()}
	c.met.workers.Set(float64(len(c.workers)))
	return id, c.opt.LeaseTTL
}

// Leave deregisters a worker, requeueing anything it still holds.
func (c *Coordinator) Leave(id string) {
	c.mu.Lock()
	notify := c.dropWorkerLocked(id, false)
	c.mu.Unlock()
	for _, fn := range notify {
		fn()
	}
}

// dropWorkerLocked removes a worker and requeues (or terminally
// fails) its leased tasks. expired says whether this was a liveness
// reaping, which counts lease expirations.
func (c *Coordinator) dropWorkerLocked(id string, expired bool) []func() {
	if _, ok := c.workers[id]; !ok {
		return nil
	}
	delete(c.workers, id)
	c.met.workers.Set(float64(len(c.workers)))
	var notify []func()
	for _, rec := range c.tasks {
		if rec.state == StateLeased && rec.worker == id {
			if expired {
				c.met.leaseExpirations.Inc()
			}
			if fn := c.requeueLocked(rec, "worker "+id+" lost"); fn != nil {
				notify = append(notify, fn)
			}
		}
	}
	return notify
}

// Claim hands the worker the first runnable queued task: FIFO over
// the queue, dependencies all done. Tasks whose dependencies failed
// are failed in passing. Returns (nil, nil) when nothing is runnable.
func (c *Coordinator) Claim(workerID string) (*Task, error) {
	c.mu.Lock()
	w, ok := c.workers[workerID]
	if !ok {
		c.mu.Unlock()
		return nil, ErrUnknownWorker
	}
	w.lastBeat = time.Now()
	var notify []func()
	var claimed *Task
	for _, id := range c.queue {
		rec := c.tasks[id]
		if rec == nil || rec.state != StateQueued {
			continue
		}
		runnable, depFailed := true, ""
		for _, dep := range rec.task.Deps {
			d := c.tasks[dep]
			switch {
			case d == nil || d.state == StateFailed:
				depFailed = dep
			case d.state != StateDone:
				runnable = false
			}
		}
		if depFailed != "" {
			notify = append(notify, c.settleLocked(rec, StateFailed, "dependency "+depFailed+" failed"))
			continue
		}
		if !runnable {
			continue
		}
		rec.state = StateLeased
		rec.worker = workerID
		rec.attempts++
		rec.lease = time.Now().Add(c.opt.LeaseTTL)
		c.met.moveTask(StateQueued, StateLeased)
		t := rec.task
		claimed = &t
		break
	}
	c.mu.Unlock()
	for _, fn := range notify {
		fn()
	}
	return claimed, nil
}

// holderLocked validates that workerID holds taskID's lease.
func (c *Coordinator) holderLocked(workerID, taskID string) (*taskRec, error) {
	if w, ok := c.workers[workerID]; ok {
		w.lastBeat = time.Now()
	} else {
		return nil, ErrUnknownWorker
	}
	rec := c.tasks[taskID]
	if rec == nil || rec.state != StateLeased || rec.worker != workerID {
		return nil, ErrNotHolder
	}
	return rec, nil
}

// Renew extends the worker's lease on a task it holds.
func (c *Coordinator) Renew(workerID, taskID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, err := c.holderLocked(workerID, taskID)
	if err != nil {
		return err
	}
	rec.lease = time.Now().Add(c.opt.LeaseTTL)
	return nil
}

// Complete settles a held task: done when errText is empty, otherwise
// requeued for another attempt (terminally failed once MaxAttempts
// claims have been burned).
func (c *Coordinator) Complete(workerID, taskID, errText string) error {
	c.mu.Lock()
	rec, err := c.holderLocked(workerID, taskID)
	var notify func()
	if err == nil {
		if errText == "" {
			c.workers[workerID].done++
			notify = c.settleLocked(rec, StateDone, "")
		} else if rec.attempts >= c.opt.MaxAttempts {
			notify = c.settleLocked(rec, StateFailed, errText)
		} else {
			notify = c.requeueLocked(rec, errText)
		}
	}
	c.mu.Unlock()
	if notify != nil {
		notify()
	}
	return err
}

// Release returns a held task to the queue unsettled and unpenalized —
// the drain path: a worker shutting down mid-task hands the work back
// so the coordinator reassigns it immediately instead of waiting out
// the lease.
func (c *Coordinator) Release(workerID, taskID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, err := c.holderLocked(workerID, taskID)
	if err != nil {
		return err
	}
	rec.attempts-- // a releasing worker is not a failing one
	c.requeueLocked(rec, "")
	return nil
}

// requeueLocked puts a leased task back in the queue — or fails it
// terminally when its attempts are spent. Returns the batch
// notification to run outside the lock (nil when requeued).
func (c *Coordinator) requeueLocked(rec *taskRec, reason string) func() {
	if rec.attempts >= c.opt.MaxAttempts {
		msg := "lease expired"
		if reason != "" {
			msg = reason
		}
		return c.settleLocked(rec, StateFailed, fmt.Sprintf("%s after %d attempts", msg, rec.attempts))
	}
	rec.state = StateQueued
	rec.worker = ""
	rec.queuedAt = time.Now()
	c.met.moveTask(StateLeased, StateQueued)
	return nil
}

// settleLocked moves a task to a terminal state and returns the batch
// notification to run outside the lock.
func (c *Coordinator) settleLocked(rec *taskRec, state, errText string) func() {
	c.met.moveTask(rec.state, state)
	rec.state = state
	rec.worker = ""
	rec.errText = errText
	b := rec.batch
	task := rec.task
	var err error
	if state == StateFailed {
		err = fmt.Errorf("cluster: task %s: %s", task.ID, errText)
		if b.firstErr == nil {
			b.firstErr = err
		}
	}
	b.remaining--
	last := b.remaining == 0
	return func() {
		if b.onDone != nil {
			b.onDone(task, err)
		}
		if last {
			close(b.doneCh)
		}
	}
}

// RunTasks enqueues a batch and blocks until every task settles (or
// ctx expires, which fails the stragglers). onDone, when non-nil, is
// called once per task as it settles — the manager's progress feed.
// The returned error is the first task failure.
func (c *Coordinator) RunTasks(ctx context.Context, tasks []Task, onDone func(Task, error)) error {
	if len(tasks) == 0 {
		return nil
	}
	b := &taskBatch{remaining: len(tasks), onDone: onDone, doneCh: make(chan struct{})}
	now := time.Now()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errors.New("cluster: coordinator closed")
	}
	for i, t := range tasks {
		if t.ID == "" {
			c.mu.Unlock()
			return fmt.Errorf("cluster: task %d has a missing id", i)
		}
		if c.tasks[t.ID] != nil {
			c.mu.Unlock()
			return fmt.Errorf("cluster: task %d has a duplicate id %q", i, t.ID)
		}
	}
	for _, t := range tasks {
		c.tasks[t.ID] = &taskRec{task: t, state: StateQueued, queuedAt: now, batch: b}
		c.queue = append(c.queue, t.ID)
		c.met.moveTask("", StateQueued)
	}
	c.mu.Unlock()

	select {
	case <-b.doneCh:
	case <-ctx.Done():
		c.mu.Lock()
		var notify []func()
		for _, t := range tasks {
			rec := c.tasks[t.ID]
			if rec.state == StateQueued || rec.state == StateLeased {
				notify = append(notify, c.settleLocked(rec, StateFailed, "batch cancelled: "+ctx.Err().Error()))
			}
		}
		c.mu.Unlock()
		for _, fn := range notify {
			fn()
		}
		<-b.doneCh
	}
	c.mu.Lock()
	err := b.firstErr
	c.mu.Unlock()
	return err
}

// Workers returns the live worker count.
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// WorkerStatus is one registered worker in a Status snapshot.
type WorkerStatus struct {
	ID        string  `json:"id"`
	Name      string  `json:"name"`
	URL       string  `json:"url,omitempty"`
	TasksDone int     `json:"tasks_done"`
	IdleSec   float64 `json:"seconds_since_heartbeat"`
}

// Status is the coordinator's operational snapshot.
type Status struct {
	Workers []WorkerStatus `json:"workers"`
	Tasks   map[string]int `json:"tasks"`
}

// Status snapshots the coordinator for /v1/cluster and /v1/stats.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{Tasks: map[string]int{
		StateQueued: 0, StateLeased: 0, StateDone: 0, StateFailed: 0,
	}}
	for _, w := range c.workers {
		st.Workers = append(st.Workers, WorkerStatus{
			ID: w.id, Name: w.name, URL: w.url, TasksDone: w.done,
			IdleSec: time.Since(w.lastBeat).Seconds(),
		})
	}
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].ID < st.Workers[j].ID })
	for _, rec := range c.tasks {
		st.Tasks[rec.state]++
	}
	return st
}

// janitor reaps expired leases and dead workers, and fails queued
// tasks that have waited out a grace period with no worker alive —
// RunTasks must never block forever on an empty cluster.
func (c *Coordinator) janitor() {
	tick := c.opt.LeaseTTL / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		now := time.Now()
		c.mu.Lock()
		var notify []func()
		for id, w := range c.workers {
			if now.Sub(w.lastBeat) > 3*c.opt.LeaseTTL {
				notify = append(notify, c.dropWorkerLocked(id, true)...)
			}
		}
		for _, rec := range c.tasks {
			switch rec.state {
			case StateLeased:
				if now.After(rec.lease) {
					c.met.leaseExpirations.Inc()
					if fn := c.requeueLocked(rec, "lease expired"); fn != nil {
						notify = append(notify, fn)
					}
				}
			case StateQueued:
				if len(c.workers) == 0 && now.Sub(rec.queuedAt) > 5*c.opt.LeaseTTL {
					notify = append(notify, c.settleLocked(rec, StateFailed, "no live workers"))
				}
			}
		}
		c.mu.Unlock()
		for _, fn := range notify {
			fn()
		}
	}
}
