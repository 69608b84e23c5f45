package sched

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/simm"
)

func rig(t *testing.T, nodes int) (*Engine, simm.Addr, simm.Addr) {
	t.Helper()
	cfg := machine.Baseline()
	cfg.Nodes = nodes
	mem := simm.New(nodes)
	shared := mem.AllocRegion("shared", 1<<16, simm.CatData, simm.AnyNode)
	lock := mem.AllocRegion("lock", simm.PageSize, simm.CatLockSLock, 0)
	m, err := machine.New(cfg, mem)
	if err != nil {
		t.Fatal(err)
	}
	return New(DefaultConfig(), mem, m), shared.Base, lock.Base
}

func TestSingleProcReadWrite(t *testing.T) {
	e, data, _ := rig(t, 1)
	e.Run([]func(*Proc){func(p *Proc) {
		p.Write64(data, 42)
		if v := p.Read64(data); v != 42 {
			t.Errorf("read %d, want 42", v)
		}
		p.Write32(data+8, 7)
		if v := p.Read32(data + 8); v != 7 {
			t.Errorf("read %d, want 7", v)
		}
	}})
	p := e.Procs()[0]
	if p.Clock() == 0 {
		t.Error("clock did not advance")
	}
	bd := p.Breakdown()
	if bd.Busy == 0 {
		t.Error("no busy cycles charged")
	}
}

func TestBusyCharging(t *testing.T) {
	e, _, _ := rig(t, 1)
	e.Run([]func(*Proc){func(p *Proc) { p.Busy(123) }})
	if got := e.Procs()[0].Breakdown().Busy; got != 123 {
		t.Errorf("busy = %d, want 123", got)
	}
	if got := e.Procs()[0].Clock(); got != 123 {
		t.Errorf("clock = %d, want 123", got)
	}
}

func TestMemStallAttribution(t *testing.T) {
	e, data, _ := rig(t, 1)
	e.Run([]func(*Proc){func(p *Proc) {
		p.Read64(data) // cold miss
	}})
	bd := e.Procs()[0].Breakdown()
	if bd.Mem[simm.CatData] == 0 {
		t.Error("read miss stall not attributed to Data")
	}
	if bd.MSync != 0 {
		t.Error("MSync charged outside synchronization")
	}
}

func TestSpinlockMutualExclusion(t *testing.T) {
	const nodes, iters = 4, 300
	e, data, lock := rig(t, nodes)
	l := SpinLock{Addr: lock}
	bodies := make([]func(*Proc), nodes)
	for i := range bodies {
		bodies[i] = func(p *Proc) {
			for k := 0; k < iters; k++ {
				p.Acquire(l)
				v := p.Read64(data)
				p.Busy(10)
				p.Write64(data, v+1)
				p.Release(l)
			}
		}
	}
	e.Run(bodies)
	if got := e.Mem().Load64(data); got != nodes*iters {
		t.Errorf("counter = %d, want %d (mutual exclusion violated)", got, nodes*iters)
	}
	// Contended locking must show up as MSync on at least one processor.
	var msync uint64
	for _, p := range e.Procs() {
		msync += p.Breakdown().MSync
	}
	if msync == 0 {
		t.Error("no MSync recorded under contention")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		e, data, lock := rig(t, 4)
		l := SpinLock{Addr: lock}
		bodies := make([]func(*Proc), 4)
		for i := range bodies {
			i := i
			bodies[i] = func(p *Proc) {
				for k := 0; k < 100; k++ {
					p.Acquire(l)
					v := p.Read64(data)
					p.Write64(data, v+uint64(i+1))
					p.Release(l)
					p.Read64(data + simm.Addr(8*(k%100)))
				}
			}
		}
		e.Run(bodies)
		var clocks []int64
		for _, p := range e.Procs() {
			clocks = append(clocks, p.Clock())
		}
		return clocks
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic: run1=%v run2=%v", a, b)
		}
	}
}

func TestInterleavingIsTimeOrdered(t *testing.T) {
	// Two processors alternate writes to a shared log; with equal costs
	// per event the log must interleave rather than run one processor
	// to completion first.
	e, data, _ := rig(t, 2)
	var order []int
	bodies := []func(*Proc){
		func(p *Proc) {
			for k := 0; k < 5; k++ {
				p.Busy(100)
				order = append(order, 0)
			}
		},
		func(p *Proc) {
			for k := 0; k < 5; k++ {
				p.Busy(100)
				order = append(order, 1)
			}
		},
	}
	e.Run(bodies)
	_ = data
	switched := 0
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1] {
			switched++
		}
	}
	if switched < 4 {
		t.Errorf("processors did not interleave: order=%v", order)
	}
}

func TestCopyMovesData(t *testing.T) {
	e, data, _ := rig(t, 1)
	e.Run([]func(*Proc){func(p *Proc) {
		p.WriteBytes(data, []byte("hello, world!xyz"))
		p.Copy(data+1024, data, 16)
		buf := make([]byte, 16)
		got := p.ReadBytes(data+1024, buf, 16)
		if string(got) != "hello, world!xyz" {
			t.Errorf("copy result %q", got)
		}
	}})
}

func TestSequentialRunsAccumulate(t *testing.T) {
	e, data, _ := rig(t, 2)
	body := func(p *Proc) { p.Read64(data) }
	e.Run([]func(*Proc){body, nil})
	c1 := e.Procs()[0].Clock()
	e.Run([]func(*Proc){body, nil})
	if c2 := e.Procs()[0].Clock(); c2 <= c1 {
		t.Errorf("second run did not accumulate: %d then %d", c1, c2)
	}
	e.ResetBreakdowns()
	if e.Procs()[0].Clock() != 0 {
		t.Error("ResetBreakdowns did not clear clocks")
	}
}

func TestTotalBreakdown(t *testing.T) {
	e, data, _ := rig(t, 2)
	e.Run([]func(*Proc){
		func(p *Proc) { p.Busy(50); p.Read64(data) },
		func(p *Proc) { p.Busy(70) },
	})
	total := e.TotalBreakdown()
	if total.Busy < 120 {
		t.Errorf("total busy = %d, want >= 120", total.Busy)
	}
	if total.MemTotal() == 0 {
		t.Error("no memory stall in total")
	}
}

func TestReadWriteBytesWordGranularity(t *testing.T) {
	e, data, _ := rig(t, 1)
	e.Run([]func(*Proc){func(p *Proc) {
		src := make([]byte, 100)
		for i := range src {
			src[i] = byte(i)
		}
		p.WriteBytes(data, src)
		buf := make([]byte, 100)
		got := p.ReadBytes(data, buf, 100)
		for i := range src {
			if got[i] != src[i] {
				t.Fatalf("byte %d: %d != %d", i, got[i], src[i])
			}
		}
	}})
	// 100 bytes = 13 word stores + 13 word loads.
	st := e.Machine().Stats()
	if st.Writes != 13 {
		t.Errorf("writes = %d, want 13", st.Writes)
	}
	if st.Reads < 13 {
		t.Errorf("reads = %d, want >= 13", st.Reads)
	}
}

func TestAlignClocks(t *testing.T) {
	e, _, _ := rig(t, 3)
	e.Run([]func(*Proc){
		func(p *Proc) { p.Busy(100) },
		func(p *Proc) { p.Busy(500) },
		func(p *Proc) { p.Busy(300) },
	})
	e.AlignClocks()
	for i, p := range e.Procs() {
		if p.Clock() != 500 {
			t.Errorf("proc %d clock = %d, want 500", i, p.Clock())
		}
	}
}

func TestTracerObservesAccesses(t *testing.T) {
	e, data, _ := rig(t, 1)
	var reads, writes int
	e.Tracer = func(proc int, a simm.Addr, size int, write bool) {
		if write {
			writes++
		} else {
			reads++
		}
	}
	e.Run([]func(*Proc){func(p *Proc) {
		p.Write64(data, 1)
		p.Read64(data)
		p.Read32(data + 8)
	}})
	if reads != 2 || writes != 1 {
		t.Errorf("tracer saw %d reads, %d writes", reads, writes)
	}
}

// expectNoLeak fails t unless the goroutine count falls back to before
// within a second. Leaked goroutines never exit; the wait only covers a
// goroutine from an earlier test that is still on its way out.
func expectNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Errorf("goroutines: %d before, %d after", before, runtime.NumGoroutine())
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunPanicLeaksNoGoroutine: when one body panics, Run re-raises in
// the caller and unwinds every sibling body, parked mid-run or never
// started.
func TestRunPanicLeaksNoGoroutine(t *testing.T) {
	e, data, _ := rig(t, 4)
	before := runtime.NumGoroutine()
	bodies := make([]func(*Proc), 4)
	for i := range bodies {
		bodies[i] = func(p *Proc) {
			for k := 0; k < 100; k++ {
				p.Read64(data + simm.Addr(8*k))
				if p.ID() == 2 && k == 50 {
					panic("boom")
				}
			}
		}
	}
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want boom", r)
			}
		}()
		e.Run(bodies)
	}()
	expectNoLeak(t, before)
}

// TestRunReplayOpPanicLeaksNoGoroutine: a panicking lock-manager op
// re-raises in RunReplay's caller and leaves no coroutine behind.
func TestRunReplayOpPanicLeaksNoGoroutine(t *testing.T) {
	e, data, _ := rig(t, 4)
	before := runtime.NumGoroutine()
	srcs := make([]ReplaySource, 4)
	for i := range srcs {
		i := i
		var evs []ReplayEvent
		for k := 0; k < 50; k++ {
			evs = append(evs, ReplayEvent{Kind: ReplayOp, Op: func(p *Proc) {
				p.Read64(data)
				p.Busy(500)
				if i == 2 && k == 30 {
					panic("boom")
				}
				p.Read64(data + 8)
			}})
		}
		srcs[i] = sliceSource(evs, 7)
	}
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want boom", r)
			}
		}()
		e.RunReplay(srcs)
	}()
	expectNoLeak(t, before)
}

// goroutineID parses the running goroutine's ID from its stack header
// ("goroutine 42 [running]:").
func goroutineID() string {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	return f[1]
}

// TestRunReplayOpsReuseProcCoroutine: a processor's lock-manager ops
// all run on one coroutine, so a replay of 1,000 ops on 4 processors
// touches at most 4 goroutines besides the driver's.
func TestRunReplayOpsReuseProcCoroutine(t *testing.T) {
	const nodes, ops = 4, 1000
	e, data, _ := rig(t, nodes)
	ids := map[string]bool{}
	srcs := make([]ReplaySource, nodes)
	for i := range srcs {
		var evs []ReplayEvent
		for k := 0; k < ops/nodes; k++ {
			evs = append(evs, ReplayEvent{Kind: ReplayOp, Op: func(p *Proc) {
				ids[goroutineID()] = true
				p.Read64(data)
				p.Busy(int64(100 + 37*p.ID()))
				p.Write64(data+8, 1)
			}})
		}
		srcs[i] = sliceSource(evs, 7)
	}
	if err := e.RunReplay(srcs); err != nil {
		t.Fatal(err)
	}
	if len(ids) > nodes {
		t.Errorf("%d lock ops ran on %d goroutines, want <= %d", ops, len(ids), nodes)
	}
}
