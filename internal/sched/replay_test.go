package sched

import (
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/simm"
	"repro/internal/stats"
)

// sliceSource returns a ReplaySource over evs that recycles one backing
// array across batches, exercising the driver contract that a batch is
// dead once the next one is requested.
func sliceSource(evs []ReplayEvent, batch int) ReplaySource {
	buf := make([]ReplayEvent, 0, batch)
	i := 0
	return func() ([]ReplayEvent, error) {
		buf = buf[:0]
		for len(buf) < batch && i < len(evs) {
			buf = append(buf, evs[i])
			i++
		}
		return buf, nil
	}
}

// liveBody executes evs as real code under Engine.Run: the program a
// recording of which would be evs. A nil stream is an idle processor.
func liveBody(evs []ReplayEvent) func(*Proc) {
	if evs == nil {
		return nil
	}
	return func(p *Proc) {
		for _, ev := range evs {
			switch ev.Kind {
			case ReplayRef:
				if ev.Write {
					p.Write64(ev.Addr, 0)
				} else {
					p.Read64(ev.Addr)
				}
			case ReplayBusy:
				p.Busy(ev.N)
			case ReplaySpinAcquire:
				p.Acquire(SpinLock{Addr: ev.Addr})
			case ReplaySpinRelease:
				p.Release(SpinLock{Addr: ev.Addr})
			case ReplayOp:
				ev.Op(p)
			}
		}
	}
}

// runResult is everything the two drivers are required to agree on.
type runResult struct {
	Clocks []int64
	Bds    []stats.CycleBreakdown
	Mach   machine.Stats
}

func resultOf(e *Engine) runResult {
	res := runResult{Mach: *e.Machine().Stats()}
	for _, p := range e.Procs() {
		res.Clocks = append(res.Clocks, p.Clock())
		res.Bds = append(res.Bds, p.Breakdown())
	}
	return res
}

// pageStride spaces per-processor working sets onto disjoint pages.
func pageStride(id int, data simm.Addr) simm.Addr {
	return data + simm.Addr(id)*simm.PageSize
}

// ref is an aligned 8-byte data reference, the shape Read64/Write64
// record.
func ref(a simm.Addr, write bool) ReplayEvent {
	return ReplayEvent{Kind: ReplayRef, Addr: a, Size: 8, Write: write}
}

// TestRunReplayMatchesRun: the same per-processor programs executed live
// under Run and replayed under RunReplay must end with identical clocks,
// per-processor breakdowns, and machine statistics.
func TestRunReplayMatchesRun(t *testing.T) {
	cases := []struct {
		name  string
		nodes int
		gen   func(id int, data, lock simm.Addr) []ReplayEvent
	}{
		{"disjoint_pages", 4, func(id int, data, lock simm.Addr) []ReplayEvent {
			var evs []ReplayEvent
			base := pageStride(id, data)
			for k := 0; k < 4000; k++ {
				evs = append(evs, ref(base+simm.Addr(k%500)*8, k%5 == 0))
			}
			return evs
		}},
		// Everyone hammers page 0 while processor 0 writes it: coherence
		// misses and invalidations all the way through.
		{"write_read_overlap", 4, func(id int, data, lock simm.Addr) []ReplayEvent {
			var evs []ReplayEvent
			for k := 0; k < 2000; k++ {
				evs = append(evs, ref(data+simm.Addr(k%100)*8, id == 0 && k%3 == 0))
			}
			return evs
		}},
		// Processor 0 writes a page early and goes quiet; processor 1
		// reads it much later and must see the state the writes left.
		{"late_reader", 2, func(id int, data, lock simm.Addr) []ReplayEvent {
			var evs []ReplayEvent
			if id == 0 {
				for k := 0; k < 300; k++ {
					evs = append(evs, ref(data+simm.Addr(k%64)*8, true))
				}
				evs = append(evs, ReplayEvent{Kind: ReplayBusy, N: 1 << 20})
				for k := 0; k < 2000; k++ {
					evs = append(evs, ref(pageStride(2, data)+simm.Addr(k%64)*8, false))
				}
				return evs
			}
			evs = append(evs, ReplayEvent{Kind: ReplayBusy, N: 1 << 18})
			for k := 0; k < 2000; k++ {
				evs = append(evs, ref(data+simm.Addr(k%64)*8, false))
			}
			return evs
		}},
		// A lock-manager op is arbitrary live code: replay runs it on a
		// goroutine that yields to the driver mid-operation.
		{"lock_op", 4, func(id int, data, lock simm.Addr) []ReplayEvent {
			var evs []ReplayEvent
			base := pageStride(id, data)
			for k := 0; k < 1500; k++ {
				evs = append(evs, ref(base+simm.Addr(k%64)*8, false))
				if k%40 == 0 {
					evs = append(evs, ReplayEvent{Kind: ReplayOp, Op: func(p *Proc) {
						p.Busy(17)
						p.Read64(data)
						p.Busy(400)
						p.Read64(pageStride(p.id, data))
					}})
				}
			}
			return evs
		}},
		{"single_toucher_spin", 4, func(id int, data, lock simm.Addr) []ReplayEvent {
			var evs []ReplayEvent
			word := pageStride(id, data) + 512
			for k := 0; k < 1200; k++ {
				evs = append(evs,
					ReplayEvent{Kind: ReplaySpinAcquire, Addr: word},
					ref(pageStride(id, data)+simm.Addr(k%64)*8, k%7 == 0),
					ReplayEvent{Kind: ReplaySpinRelease, Addr: word})
			}
			return evs
		}},
		// Contended handoffs: spin iterations and release invalidations
		// must re-emerge at the same timestamps.
		{"shared_spin_word", 2, func(id int, data, lock simm.Addr) []ReplayEvent {
			var evs []ReplayEvent
			for k := 0; k < 600; k++ {
				evs = append(evs,
					ReplayEvent{Kind: ReplaySpinAcquire, Addr: lock},
					ref(data+simm.Addr(k%32)*8, true),
					ReplayEvent{Kind: ReplaySpinRelease, Addr: lock},
					ReplayEvent{Kind: ReplayBusy, N: 200})
			}
			return evs
		}},
		{"zero_length_streams", 4, func(id int, data, lock simm.Addr) []ReplayEvent {
			switch id {
			case 0:
				return nil // idle processor: nil body, nil source
			case 1:
				return []ReplayEvent{} // immediate EOF
			case 2:
				// Zero-cost events only: the clock never advances.
				return []ReplayEvent{{Kind: ReplayBusy, N: 0}, {Kind: ReplayBusy, N: 0}}
			}
			var evs []ReplayEvent
			for k := 0; k < 500; k++ {
				evs = append(evs, ref(pageStride(3, data)+simm.Addr(k%64)*8, false))
			}
			return evs
		}},
		{"uneven_eof", 2, func(id int, data, lock simm.Addr) []ReplayEvent {
			n := 50
			if id == 0 {
				n = 5000
			}
			var evs []ReplayEvent
			for k := 0; k < n; k++ {
				evs = append(evs, ref(pageStride(id, data)+simm.Addr(k%64)*8, k%9 == 0))
			}
			return evs
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			live, data, lock := rig(t, tc.nodes)
			bodies := make([]func(*Proc), tc.nodes)
			for i := range bodies {
				bodies[i] = liveBody(tc.gen(i, data, lock))
			}
			live.Run(bodies)

			rep, data, lock := rig(t, tc.nodes)
			srcs := make([]ReplaySource, tc.nodes)
			for i := range srcs {
				if evs := tc.gen(i, data, lock); evs != nil {
					srcs[i] = sliceSource(evs, 7)
				}
			}
			if err := rep.RunReplay(srcs); err != nil {
				t.Fatal(err)
			}

			if want, got := resultOf(live), resultOf(rep); !reflect.DeepEqual(want, got) {
				t.Errorf("replay diverges from live execution\nlive:   %+v\nreplay: %+v", want, got)
			}
		})
	}
}
