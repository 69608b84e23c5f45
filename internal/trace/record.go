package trace

import "repro/internal/simm"

// Recorder captures per-processor event streams from a live run. It
// implements sched.Engine's Recorder hook, whose lock-op bracket
// (BeginLockOp/EndLockOp) the lock manager opens around every
// operation. Everything between a bracket's Begin and End — the
// spinlock acquire, the hash-table probes, the conflict backoff — is
// suppressed in favor of the single symbolic lock operation, which
// replay re-executes live.
type Recorder struct {
	ps []recProc
}

type recProc struct {
	w        streamWriter
	suppress bool
}

// NewRecorder creates a recorder for nodes processors.
func NewRecorder(nodes int) *Recorder {
	return &Recorder{ps: make([]recProc, nodes)}
}

// Ref implements sched.Recorder.
func (r *Recorder) Ref(proc int, a simm.Addr, size int, write bool) {
	p := &r.ps[proc]
	if p.suppress {
		return
	}
	p.w.ref(uint64(a), size, write)
}

// BusyEvent implements sched.Recorder.
func (r *Recorder) BusyEvent(proc int, n int64) {
	p := &r.ps[proc]
	if p.suppress {
		return
	}
	p.w.op1(opBusy, uint64(n))
}

// SpinAcquire implements sched.Recorder.
func (r *Recorder) SpinAcquire(proc int, a simm.Addr) {
	p := &r.ps[proc]
	if p.suppress {
		return
	}
	p.w.op1(opSpinAcq, uint64(a))
}

// SpinRelease implements sched.Recorder.
func (r *Recorder) SpinRelease(proc int, a simm.Addr) {
	p := &r.ps[proc]
	if p.suppress {
		return
	}
	p.w.op1(opSpinRel, uint64(a))
}

// BeginLockOp implements sched.Recorder: it records a lock-manager
// operation symbolically and opens the suppression bracket for its raw
// traffic.
func (r *Recorder) BeginLockOp(proc int, acquire bool, relID uint32, level uint8, page uint32, mode uint8) {
	p := &r.ps[proc]
	p.w.lockOp(acquire, relID, level, page, mode)
	p.suppress = true
}

// EndLockOp implements sched.Recorder: it closes the suppression
// bracket.
func (r *Recorder) EndLockOp(proc int) {
	r.ps[proc].suppress = false
}

// Streams finalizes and returns the recorded per-processor streams.
func (r *Recorder) Streams() []Stream {
	out := make([]Stream, len(r.ps))
	for i := range r.ps {
		out[i] = r.ps[i].w.stream()
	}
	return out
}
