package runner

import (
	"sync"
	"time"
)

// EventKind discriminates progress events.
type EventKind int

const (
	// JobQueued: the job entered the ready queue.
	JobQueued EventKind = iota
	// JobStarted: a worker began executing the job.
	JobStarted
	// JobFinished: the job reached a terminal state (see Event.State for
	// which: Done, Failed, or Cached).
	JobFinished
)

var eventKindNames = [...]string{"queued", "started", "finished"}

func (k EventKind) String() string {
	if k < 0 || int(k) >= len(eventKindNames) {
		return "invalid"
	}
	return eventKindNames[k]
}

// Event is one entry of the pool's progress stream.
type Event struct {
	Kind     EventKind
	Job      JobID
	Name     string
	State    State
	CacheHit bool
	Elapsed  time.Duration
	Err      string
	// Key is the job's content-addressed cache key ("" for NoCache
	// jobs). It is the cross-process identity of the measurement, so a
	// listener tracking a scenario's progress can match events against
	// the keys the scenario plans to — no matter which submission, or
	// which peer's completion, settles them.
	Key string
}

// progressHub fans events out to listeners.
type progressHub struct {
	mu   sync.Mutex
	next int
	subs map[int]func(Event)
}

// Subscribe registers a progress listener and returns a cancel function
// that removes it. publish calls every listener synchronously, in
// publish order, so a listener sees every event — and a job's finished
// event has been delivered before any Wait on that job returns. Calls
// hold the pool's event lock, and for all but started events its job
// lock too: a listener must be quick, must not block, and must not call
// back into the pool. Once cancel returns, fn is not running and is
// never called again.
func (p *Pool) Subscribe(fn func(Event)) (cancel func()) {
	p.hub.mu.Lock()
	if p.hub.subs == nil {
		p.hub.subs = make(map[int]func(Event))
	}
	id := p.hub.next
	p.hub.next++
	p.hub.subs[id] = fn
	p.hub.mu.Unlock()
	return func() {
		p.hub.mu.Lock()
		delete(p.hub.subs, id)
		p.hub.mu.Unlock()
	}
}

func (p *Pool) publish(ev Event) {
	p.hub.mu.Lock()
	for _, fn := range p.hub.subs {
		fn(ev)
	}
	p.hub.mu.Unlock()
}

func (p *Pool) publishFinished(rec *jobRec) {
	var errText string
	if rec.err != nil {
		errText = rec.err.Error()
	}
	p.publish(Event{
		Kind: JobFinished, Job: rec.id, Name: rec.job.Name,
		State: rec.state, CacheHit: rec.cacheHit,
		Elapsed: rec.finished.Sub(rec.submitted), Err: errText,
		Key: rec.key,
	})
}
