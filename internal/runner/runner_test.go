package runner

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
)

// fakeFactory stands in for system construction and counts calls; the
// test bodies that use it never touch the returned (empty) system.
type fakeFactory struct {
	calls int64
}

func (f *fakeFactory) build(scenario.Scenario) (*core.System, error) {
	atomic.AddInt64(&f.calls, 1)
	return &core.System{}, nil
}

// specQ is the default scenario spec narrowed to the given query list —
// the job-identity idiom the tests perturb.
func specQ(qs ...string) scenario.Scenario {
	sc := scenario.Default()
	sc.Workload.Queries = qs
	return sc
}

func newTestPool(t *testing.T, workers int) (*Pool, *fakeFactory) {
	t.Helper()
	f := &fakeFactory{}
	p := New(Config{Workers: workers, Factory: f.build})
	t.Cleanup(p.Close)
	return p, f
}

func waitRunning(t *testing.T, p *Pool, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Running < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d running jobs (running=%d)", n, p.Stats().Running)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDependencyOrdering checks the After invariant: a dependent job
// never starts before its predecessor finished, no matter how many
// workers compete for the queue.
func TestDependencyOrdering(t *testing.T) {
	p, _ := newTestPool(t, 4)
	const pairs = 8
	var warmed [pairs]int32
	var jobs []*Job
	var measureIdx []int
	for i := 0; i < pairs; i++ {
		i := i
		warm := &Job{
			Name: fmt.Sprintf("warm-%d", i), NoCache: true,
			Body: func(*Ctx) (interface{}, error) {
				time.Sleep(time.Duration(i%3) * time.Millisecond)
				atomic.StoreInt32(&warmed[i], 1)
				return nil, nil
			},
		}
		measure := &Job{
			Name: fmt.Sprintf("measure-%d", i), NoCache: true,
			After: []*Job{warm},
			Body: func(*Ctx) (interface{}, error) {
				if atomic.LoadInt32(&warmed[i]) == 0 {
					return nil, fmt.Errorf("measure-%d started before warm-%d finished", i, i)
				}
				return i, nil
			},
		}
		measureIdx = append(measureIdx, len(jobs)+1)
		jobs = append(jobs, warm, measure)
	}
	res, err := p.RunAll(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, idx := range measureIdx {
		if res[idx] != i {
			t.Errorf("measure-%d returned %v", i, res[idx])
		}
	}
}

// TestCacheAccounting checks hit/miss bookkeeping: the first run of a
// cacheable job is a miss, an identical resubmission is a hit that does
// not re-run the body, and an unrelated job misses again.
func TestCacheAccounting(t *testing.T) {
	p, _ := newTestPool(t, 2)
	var runs int64
	mk := func(q string) *Job {
		return &Job{
			Name: "cold/" + q, Mode: "cold", Spec: specQ(q),
			Body: func(*Ctx) (interface{}, error) {
				atomic.AddInt64(&runs, 1)
				return "result-" + q, nil
			},
		}
	}
	if _, err := p.RunAll(context.Background(), []*Job{mk("Q6")}); err != nil {
		t.Fatal(err)
	}
	res, err := p.RunAll(context.Background(), []*Job{mk("Q6")})
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "result-Q6" {
		t.Fatalf("cached result = %v", res[0])
	}
	if _, err := p.RunAll(context.Background(), []*Job{mk("Q3")}); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&runs); got != 2 {
		t.Errorf("bodies ran %d times, want 2 (Q6 once, Q3 once)", got)
	}
	s := p.Stats()
	if s.CacheHits != 1 || s.CacheMisses != 2 {
		t.Errorf("hits=%d misses=%d, want 1/2", s.CacheHits, s.CacheMisses)
	}
	if got := s.HitRate(); got < 0.33 || got > 0.34 {
		t.Errorf("hit rate = %v, want 1/3", got)
	}
	if s.Completed != 2 || s.Submitted != 3 {
		t.Errorf("completed=%d submitted=%d, want 2/3", s.Completed, s.Submitted)
	}
}

// TestDeterministicOrder checks RunAll's contract: results come back in
// submission order even when completion order is scrambled by workers.
func TestDeterministicOrder(t *testing.T) {
	p, _ := newTestPool(t, 4)
	const n = 40
	jobs := make([]*Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = &Job{
			Name: fmt.Sprintf("j%d", i), NoCache: true,
			Body: func(*Ctx) (interface{}, error) {
				// Later submissions finish earlier.
				time.Sleep(time.Duration((n-i)%7) * time.Millisecond)
				return i, nil
			},
		}
	}
	res, err := p.RunAll(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r != i {
			t.Fatalf("res[%d] = %v, want %d", i, r, i)
		}
	}
}

// TestShutdownDrain checks graceful shutdown: running jobs complete,
// queued jobs fail with ErrShutdown, and later submissions are refused.
func TestShutdownDrain(t *testing.T) {
	p, _ := newTestPool(t, 2)
	release := make(chan struct{})
	slow := func(name string) *Job {
		return &Job{Name: name, NoCache: true, Body: func(*Ctx) (interface{}, error) {
			<-release
			return name, nil
		}}
	}
	fast := func(name string) *Job {
		return &Job{Name: name, NoCache: true, Body: func(*Ctx) (interface{}, error) {
			return name, nil
		}}
	}
	ids, err := p.SubmitAll([]*Job{slow("a"), slow("b"), fast("c"), fast("d")})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, p, 2)
	done := make(chan error, 1)
	go func() { done <- p.Shutdown(context.Background()) }()
	time.Sleep(5 * time.Millisecond) // let Shutdown cancel the queue
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for i, id := range ids[:2] {
		if _, err := p.Wait(context.Background(), id); err != nil {
			t.Errorf("running job %d: %v, want drained to completion", i, err)
		}
	}
	for i, id := range ids[2:] {
		if _, err := p.Wait(context.Background(), id); !errors.Is(err, ErrShutdown) {
			t.Errorf("queued job %d: err = %v, want ErrShutdown", i, err)
		}
	}
	if _, err := p.Submit(fast("late")); !errors.Is(err, ErrShutdown) {
		t.Errorf("submit after shutdown = %v, want ErrShutdown", err)
	}
}

// TestPanicRecovery checks that a panicking body fails its job instead
// of killing the worker.
func TestPanicRecovery(t *testing.T) {
	p, _ := newTestPool(t, 1)
	id, err := p.Submit(&Job{Name: "boom", NoCache: true,
		Body: func(*Ctx) (interface{}, error) { panic("kaboom") }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(context.Background(), id); err == nil {
		t.Fatal("panicking job reported success")
	}
	// The worker survived: it can still run jobs.
	res, err := p.RunAll(context.Background(), []*Job{{Name: "after", NoCache: true,
		Body: func(*Ctx) (interface{}, error) { return 42, nil }}})
	if err != nil || res[0] != 42 {
		t.Fatalf("job after panic: res=%v err=%v", res, err)
	}
}

// TestReadyQueueFIFO checks the ready queue: with one gated worker,
// queued jobs run in submission order.
func TestReadyQueueFIFO(t *testing.T) {
	p, _ := newTestPool(t, 1)
	release := make(chan struct{})
	blocker := &Job{Name: "blocker", NoCache: true,
		Body: func(*Ctx) (interface{}, error) { <-release; return nil, nil }}
	if _, err := p.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, p, 1)

	var mu sync.Mutex
	var order []string
	mk := func(name string) *Job {
		return &Job{Name: name, NoCache: true,
			Body: func(*Ctx) (interface{}, error) {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
				return nil, nil
			}}
	}
	want := []string{"a", "b", "c", "d"}
	jobs := make([]*Job, len(want))
	for i, name := range want {
		jobs[i] = mk(name)
	}
	ids, err := p.SubmitAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	if _, err := p.Wait(context.Background(), ids...); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("execution order = %v, want %v", order, want)
		}
	}
}

// TestReadyQueueDependentsFirst checks that jobs others wait on run
// first: with one gated worker, the batch [r1←c1, c1, r2←c2, c2, leaf]
// starts both captures before either replay, and ties keep submission
// order. FIFO alone would run c1, r1, c2, r2, leaf.
func TestReadyQueueDependentsFirst(t *testing.T) {
	p, _ := newTestPool(t, 1)
	release := make(chan struct{})
	blocker := &Job{Name: "blocker", NoCache: true,
		Body: func(*Ctx) (interface{}, error) { <-release; return nil, nil }}
	if _, err := p.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, p, 1)

	var mu sync.Mutex
	var order []string
	mk := func(name string, after ...*Job) *Job {
		return &Job{Name: name, NoCache: true, After: after,
			Body: func(*Ctx) (interface{}, error) {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
				return nil, nil
			}}
	}
	c1, c2 := mk("c1"), mk("c2")
	ids, err := p.SubmitAll([]*Job{mk("r1", c1), c1, mk("r2", c2), c2, mk("leaf")})
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	if _, err := p.Wait(context.Background(), ids...); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(order), "[c1 c2 r1 r2 leaf]"; got != want {
		t.Fatalf("execution order = %s, want %s", got, want)
	}
}

// TestEveryJobBuildsItsOwnSystem checks the one-job-one-system rule:
// two dependent jobs of one batch that both ask for a system get two
// builds — a dependency shares its result, never its system.
func TestEveryJobBuildsItsOwnSystem(t *testing.T) {
	p, f := newTestPool(t, 2)
	var systems [2]*core.System
	build := func(i int) func(c *Ctx) (interface{}, error) {
		return func(c *Ctx) (interface{}, error) {
			s, err := c.System()
			systems[i] = s
			return nil, err
		}
	}
	a := &Job{Name: "a", NoCache: true, Body: build(0)}
	b := &Job{Name: "b", NoCache: true, After: []*Job{a}, Body: build(1)}
	if _, err := p.RunAll(context.Background(), []*Job{a, b}); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&f.calls); got != 2 {
		t.Errorf("two dependent jobs built %d systems, want 2", got)
	}
	if systems[0] == systems[1] {
		t.Error("dependent job received its predecessor's system")
	}
}

// TestDependencyFailureCascades checks that a failed dependency fails
// its dependents instead of leaving them pending forever.
func TestDependencyFailureCascades(t *testing.T) {
	p, _ := newTestPool(t, 2)
	broken := errors.New("broken warmer")
	bad := &Job{Name: "bad", NoCache: true,
		Body: func(*Ctx) (interface{}, error) { return nil, broken }}
	dep := &Job{Name: "dep", NoCache: true, After: []*Job{bad},
		Body: func(*Ctx) (interface{}, error) { return "ran", nil }}
	ids, err := p.SubmitAll([]*Job{bad, dep})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(context.Background(), ids[1]); !errors.Is(err, broken) {
		t.Fatalf("dependent of failed job: err = %v, want the dependency's error", err)
	}
}

// diskResult is the payload for the disk-cache round trip.
type diskResult struct{ N int }

func init() { gob.Register(diskResult{}) }

// TestDiskCache checks the persistent tier: a second pool pointed at
// the same directory resolves a prior pool's results without running.
func TestDiskCache(t *testing.T) {
	dir := t.TempDir()
	f := &fakeFactory{}
	mk := func() *Job {
		return &Job{Name: "persisted", Mode: "cold", Spec: specQ("Q6"),
			Body: func(*Ctx) (interface{}, error) { return diskResult{N: 7}, nil }}
	}
	p1 := New(Config{Workers: 1, CacheDir: dir, Factory: f.build})
	if _, err := p1.RunAll(context.Background(), []*Job{mk()}); err != nil {
		t.Fatal(err)
	}
	p1.Close()

	p2 := New(Config{Workers: 1, CacheDir: dir, Factory: f.build})
	defer p2.Close()
	res, err := p2.RunAll(context.Background(), []*Job{mk()})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := res[0].(diskResult); !ok || got.N != 7 {
		t.Fatalf("disk-cached result = %#v", res[0])
	}
	if s := p2.Stats(); s.CacheHits != 1 || s.Completed != 0 {
		t.Errorf("second pool: hits=%d completed=%d, want 1/0", s.CacheHits, s.Completed)
	}
}

// recorder is a progress listener that keeps every event it is handed.
type recorder struct {
	mu     sync.Mutex
	events []Event
}

func (r *recorder) listen(ev Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// TestEvents checks the progress stream: a job's lifecycle publishes
// queued, started, and finished events in order.
func TestEvents(t *testing.T) {
	p, _ := newTestPool(t, 1)
	var rec recorder
	cancel := p.Subscribe(rec.listen)
	defer cancel()
	id, err := p.Submit(&Job{Name: "observed", NoCache: true,
		Body: func(*Ctx) (interface{}, error) { return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	got := rec.snapshot()
	want := []EventKind{JobQueued, JobStarted, JobFinished}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(got), len(want), got)
	}
	for i, k := range want {
		if ev := got[i]; ev.Kind != k || ev.Job != id {
			t.Fatalf("event %d = %v/%v, want kind %v for job %d", i, ev.Kind, ev.Job, k, id)
		}
	}
	if got[2].State != Done {
		t.Errorf("finished state = %v, want done", got[2].State)
	}
}

// TestFinishedEventPrecedesWait: by the time Wait returns, the job's
// finished event has been delivered, so a listener cancelled right
// after Wait still counted it — the contract progress tracking
// (ProgressKeys against Event.Key) relies on for the last job of a
// render.
func TestFinishedEventPrecedesWait(t *testing.T) {
	p, _ := newTestPool(t, 2)
	for i := 0; i < 3000; i++ { // the lost event is a narrow race: try often
		var rec recorder
		cancel := p.Subscribe(rec.listen)
		_, err := p.RunAll(context.Background(), []*Job{{Name: "last", NoCache: true,
			Body: func(*Ctx) (interface{}, error) { return nil, nil }}})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		finished := 0
		for _, ev := range rec.snapshot() {
			if ev.Kind == JobFinished {
				finished++
			}
		}
		if finished != 1 {
			t.Fatalf("run %d: %d finished events seen by Wait's return, want 1", i, finished)
		}
	}
}

// TestListenerSeesEveryEvent: a listener is lossless and ordered. Two
// listeners over a 2,000-job batch each see all 6,000 events (queued,
// started, finished per job), in the same order, with every job's
// lifecycle in sequence — no buffer to overflow, no event dropped.
func TestListenerSeesEveryEvent(t *testing.T) {
	p, _ := newTestPool(t, 4)
	var a, b recorder
	cancelA := p.Subscribe(a.listen)
	cancelB := p.Subscribe(b.listen)
	const n = 2000
	jobs := make([]*Job, n)
	for i := range jobs {
		jobs[i] = &Job{Name: fmt.Sprintf("j%d", i), NoCache: true,
			Body: func(*Ctx) (interface{}, error) { return nil, nil }}
	}
	_, err := p.RunAll(context.Background(), jobs)
	cancelA()
	cancelB()
	if err != nil {
		t.Fatal(err)
	}
	got, other := a.snapshot(), b.snapshot()
	if len(got) != 3*n || len(other) != 3*n {
		t.Fatalf("listeners saw %d and %d events, want %d each", len(got), len(other), 3*n)
	}
	next := make(map[JobID]EventKind, n)
	for i, ev := range got {
		if other[i].Job != ev.Job || other[i].Kind != ev.Kind {
			t.Fatalf("event %d differs between listeners: %v/%v vs %v/%v",
				i, ev.Job, ev.Kind, other[i].Job, other[i].Kind)
		}
		if ev.Kind != next[ev.Job] {
			t.Fatalf("event %d: job %d published %v, want %v next", i, ev.Job, ev.Kind, next[ev.Job])
		}
		next[ev.Job]++
	}
	for id, k := range next {
		if k != JobFinished+1 {
			t.Fatalf("job %d stopped at %v", id, k)
		}
	}
}

// TestWaitContext checks that Wait respects context cancellation.
func TestWaitContext(t *testing.T) {
	p, _ := newTestPool(t, 1)
	release := make(chan struct{})
	defer close(release)
	id, err := p.Submit(&Job{Name: "stuck", NoCache: true,
		Body: func(*Ctx) (interface{}, error) { <-release; return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := p.Wait(ctx, id); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wait = %v, want deadline exceeded", err)
	}
}

// TestBadSubmissions checks batch validation.
func TestBadSubmissions(t *testing.T) {
	p, _ := newTestPool(t, 1)
	if _, err := p.SubmitAll([]*Job{{Name: "nobody"}}); err == nil {
		t.Error("job without body accepted")
	}
	j := &Job{Name: "dup", NoCache: true, Body: func(*Ctx) (interface{}, error) { return nil, nil }}
	if _, err := p.SubmitAll([]*Job{j, j}); err == nil {
		t.Error("duplicate job accepted")
	}
	outside := &Job{Name: "out", NoCache: true, Body: func(*Ctx) (interface{}, error) { return nil, nil }}
	in := &Job{Name: "in", NoCache: true, After: []*Job{outside},
		Body: func(*Ctx) (interface{}, error) { return nil, nil }}
	if _, err := p.SubmitAll([]*Job{in}); err == nil {
		t.Error("out-of-batch dependency accepted")
	}
	if _, err := p.Wait(context.Background(), 99999); err == nil {
		t.Error("unknown job id accepted")
	}
}
