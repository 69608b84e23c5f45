package trace

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/sched"
	"repro/internal/simm"
)

// TestRecorderRoundTrip feeds a Recorder a seeded random mix of
// references, busy charges, spins and lock operations, chosen so the
// writer meets every encoding decision: sizes with and without a short
// form, deltas at both ends of the short range and one step past them,
// large and negative deltas, and repeats shorter and longer than one
// run. Every decoder must hand back exactly the events fed in.
func TestRecorderRoundTrip(t *testing.T) {
	const nodes = 2
	rng := rand.New(rand.NewSource(38))
	rec := NewRecorder(nodes)
	want := make([][]Event, nodes)
	last := make([]uint64, nodes)
	var refs [nodes]uint64
	for step := 0; step < 60000; step++ {
		p := rng.Intn(nodes)
		var ev Event
		switch x := rng.Intn(100); {
		case x < 80:
			size := 1 + rng.Intn(8)
			var d int64
			switch rng.Intn(6) {
			case 0:
				d = 0
			case 1:
				d = int64(size) * []int64{-9, -8, 7, 8}[rng.Intn(4)]
			case 2:
				d = int64(size) * int64(rng.Intn(16)-8)
			case 3:
				d = rng.Int63n(1<<40) - 1<<39
			default:
				d = int64(size) // the Sequential queries' stride
			}
			ev = Event{Kind: EvRef, Addr: simm.Addr(last[p] + uint64(d)), Size: size, Write: rng.Intn(4) == 0}
			// Repeat some references to build runs, some past maxRun.
			reps := 1
			switch rng.Intn(40) {
			case 0:
				reps += rng.Intn(2*maxRun + 10)
			case 1, 2, 3, 4, 5, 6, 7, 8, 9:
				reps += rng.Intn(16)
			}
			for i := 0; i < reps; i++ {
				rec.Ref(p, ev.Addr, ev.Size, ev.Write)
				want[p] = append(want[p], ev)
				refs[p]++
				last[p] = uint64(ev.Addr)
				ev.Addr += simm.Addr(d)
			}
			continue
		case x < 90:
			ev = Event{Kind: EvBusy, N: rng.Int63n(1 << uint(rng.Intn(40)))}
			rec.BusyEvent(p, ev.N)
		case x < 95:
			ev = Event{Kind: EvSpinAcquire, Addr: simm.Addr(rng.Int63())}
			if rng.Intn(2) == 0 {
				ev.Kind = EvSpinRelease
				rec.SpinRelease(p, ev.Addr)
			} else {
				rec.SpinAcquire(p, ev.Addr)
			}
		default:
			ev = Event{Kind: EvLockOp, Acquire: rng.Intn(2) == 0, RelID: rng.Uint32(),
				Level: uint8(rng.Intn(4)), Page: rng.Uint32(), Mode: uint8(rng.Intn(64))}
			rec.BeginLockOp(p, ev.Acquire, ev.RelID, ev.Level, ev.Page, ev.Mode)
			rec.Ref(p, 0xdead, 8, true) // suppressed: inside the bracket
			rec.EndLockOp(p)
		}
		want[p] = append(want[p], ev)
	}
	tr := testTrace()
	tr.Streams = rec.Streams()
	blob := tr.Marshal()
	rd, err := OpenBlob(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	for p := range want {
		s := tr.Streams[p]
		if s.Refs != refs[p] || s.Events != uint64(len(want[p])) {
			t.Fatalf("stream %d: Refs %d Events %d, fed %d and %d", p, s.Refs, s.Events, refs[p], len(want[p]))
		}
		if len(s.Chunks) < 2 {
			t.Fatalf("stream %d: %d chunks, want a chunk boundary", p, len(s.Chunks))
		}
		sameEvents(t, "Next", decodeAll(t, s.Cursor()), want[p])
		sameEvents(t, "OpenBlob", decodeAll(t, rd.StreamCursor(p)), want[p])
		for _, size := range []int{1, 7, 8192} {
			cur, buf := s.Cursor(), make([]sched.ReplayEvent, size)
			var got []Event
			for {
				k := len(got)
				var err error
				if got, err = replayBatchEvents(cur, buf, got); err != nil {
					t.Fatalf("stream %d batch %d: %v", p, size, err)
				}
				if len(got) == k {
					break
				}
			}
			sameEvents(t, "DecodeReplayBatch", got, want[p])
		}
	}
}

func sameEvents(t *testing.T, via string, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, fed %d", via, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d is %+v, fed %+v", via, i, got[i], want[i])
		}
	}
}

// TestMalformedRunsFail pins the stride run's bounds: a run needs a
// reference before it and a count of at least one, and a stream cut
// inside one is truncated.
func TestMalformedRunsFail(t *testing.T) {
	for name, b := range map[string][]byte{
		"first event": {opRun, 3},
		"empty":       {opShort | 0x39, opRun, 0},
		"truncated":   {opShort | 0x39, opRun},
	} {
		cur := (&Stream{Chunks: [][]byte{b}}).Cursor()
		var ev Event
		var err error
		for ok := true; ok && err == nil; {
			ok, err = cur.Next(&ev)
		}
		if err == nil {
			t.Errorf("%s run decoded without error", name)
		}
	}
}
