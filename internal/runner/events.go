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

// progressHub fans events out to subscribers. Sends never block: a
// subscriber that falls behind its buffer loses events rather than
// stalling the workers.
type progressHub struct {
	mu   sync.Mutex
	next int
	subs map[int]chan Event
}

// Subscribe registers a progress listener with the given channel buffer
// and returns the channel plus a cancel function that closes it.
func (p *Pool) Subscribe(buf int) (<-chan Event, func()) {
	if buf < 1 {
		buf = 1
	}
	ch := make(chan Event, buf)
	p.hub.mu.Lock()
	if p.hub.subs == nil {
		p.hub.subs = make(map[int]chan Event)
	}
	id := p.hub.next
	p.hub.next++
	p.hub.subs[id] = ch
	p.hub.mu.Unlock()
	return ch, func() {
		p.hub.mu.Lock()
		if c, ok := p.hub.subs[id]; ok {
			delete(p.hub.subs, id)
			close(c)
		}
		p.hub.mu.Unlock()
	}
}

func (p *Pool) publish(ev Event) {
	p.hub.mu.Lock()
	for _, ch := range p.hub.subs {
		select {
		case ch <- ev:
		default:
		}
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
