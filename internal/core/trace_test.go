package core

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/machine"
	"repro/internal/trace"
)

func traceTestConfigs(base machine.Config) []struct {
	name string
	cfg  machine.Config
} {
	pf := base
	pf.PrefetchData = true
	pf.PrefetchDegree = 4
	wb := base
	wb.WriteBufEntries = 1
	return []struct {
		name string
		cfg  machine.Config
	}{
		{"baseline", base},
		{"line256", base.WithLineSize(256)},
		{"cache8MB", base.WithCacheSizes(8<<20/32, 8<<20)},
		{"prefetch4", pf},
		{"wb1", wb},
	}
}

// TestTraceReplayMatchesExecution is the record-once/replay-many
// contract for the sweep experiments (fig8-11), where every point runs
// on a fresh system: one baseline capture per query must reproduce, bit
// for bit, the report a fresh execution produces under every swept
// machine configuration.
func TestTraceReplayMatchesExecution(t *testing.T) {
	cfg := testConfig(0.001)
	for _, q := range []string{"Q6", "Q3"} {
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		recorded, tr := s.RunColdRecorded(q)

		sp, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if plain := sp.RunCold(q); !reflect.DeepEqual(plain, recorded) {
			t.Fatalf("%s: recording perturbed the run", q)
		}

		tr2, err := trace.Unmarshal(tr.Marshal())
		if err != nil {
			t.Fatalf("%s: blob round-trip: %v", q, err)
		}
		for _, c := range traceTestConfigs(cfg.Machine) {
			ccfg := cfg
			ccfg.Machine = c.cfg
			sf, err := NewSystem(ccfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", q, c.name, err)
			}
			fresh := sf.RunCold(q)
			replayed, err := ReplayTrace(tr2, c.cfg)
			if err != nil {
				t.Fatalf("%s/%s: replay: %v", q, c.name, err)
			}
			if !reflect.DeepEqual(fresh, replayed) {
				t.Errorf("%s/%s: skeleton replay diverges from execution", q, c.name)
			}
		}
	}
}

// TestTraceReplayColdMatchesSteadyState is the contract for the
// ablation sweeps, whose points share one system: after a warm-up run
// the reference stream is steady, so a trace recorded on the second run
// replays bit-identically against fresh steady-state executions under
// every subsequent configuration.
func TestTraceReplayColdMatchesSteadyState(t *testing.T) {
	cfg := testConfig(0.001)
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const q = "Q3"
	s.RunCold(q) // warm-up: the first run on a fresh system is not steady
	_, tr := s.RunColdRecorded(q)
	tr2, err := trace.Unmarshal(tr.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range traceTestConfigs(cfg.Machine) {
		if err := s.ReplaceMachine(c.cfg); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fresh := s.RunCold(q)
		live, err := s.ReplayCold(tr2)
		if err != nil {
			t.Fatalf("%s: live replay: %v", c.name, err)
		}
		if !reflect.DeepEqual(fresh, live) {
			t.Errorf("%s: live-system replay diverges from steady-state execution", c.name)
		}
	}
}

func TestTraceReplayRejectsWrongNodes(t *testing.T) {
	s, err := NewSystem(testConfig(0.001))
	if err != nil {
		t.Fatal(err)
	}
	_, tr := s.RunColdRecorded("Q6")
	cfg := s.Cfg.Machine
	cfg.Nodes = 8
	if _, err := ReplayTrace(tr, cfg); err == nil {
		t.Error("replay accepted a node-count mismatch")
	}
}

// TestSecondReplayReusesItsBuffers pins what a replay allocates once the
// arena is warm: the second replay of one trace at one configuration gets
// its skeleton, machine tables and decode buffers back from the first, so
// what is left is the engine, the cursors, the lock-operation goroutines
// and the report.
func TestSecondReplayReusesItsBuffers(t *testing.T) {
	s, err := NewSystem(testConfig(0.001))
	if err != nil {
		t.Fatal(err)
	}
	want, tr := s.RunColdRecorded("Q6")
	mcfg := s.Cfg.Machine
	if _, err := ReplayTrace(tr, mcfg); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := ReplayTrace(tr, mcfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("second replay diverges from the recorded run")
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("second replay allocated %d bytes", alloc)
	if alloc >= 256<<10 {
		t.Errorf("second replay allocated %d bytes, want < %d", alloc, 256<<10)
	}
}

// TestDecodeBufferFootprint pins the decode buffers a replaying engine
// owns: one replayBatch-event buffer per processor, for a System's
// self-replays and for a pooled skeleton's replays alike.
func TestDecodeBufferFootprint(t *testing.T) {
	s, err := NewSystem(testConfig(0.002))
	if err != nil {
		t.Fatal(err)
	}
	_, tr := s.RunColdRecorded("Q3")
	if _, err := ReplayTrace(tr, s.Cfg.Machine); err != nil {
		t.Fatal(err)
	}
	sk, err := acquireSkeleton(tr.Layout)
	if err != nil {
		t.Fatal(err)
	}
	defer releaseSkeleton(sk)
	const want = 4 * 1024 * 48 // processors x replayBatch x sizeof(sched.ReplayEvent)
	for _, c := range []struct {
		owner string
		bufs  decodeBufs
	}{{"system", s.decode}, {"skeleton", sk.decode}} {
		got := 0
		for _, b := range c.bufs {
			got += cap(b) * int(unsafe.Sizeof(b[0]))
		}
		if got != want {
			t.Errorf("%s decode buffers hold %d B, want %d B", c.owner, got, want)
		}
	}
}

// TestLongFormTraceReplays holds the dense stream forms to the long
// forms they replace: a Q6 recording re-encoded in opcodes 0x00..0x14
// alone, as blobs written before the short reference and the stride
// run were, decodes to the same events and replays to the same reports.
// It also pins the density those forms buy.
func TestLongFormTraceReplays(t *testing.T) {
	cfg := testConfig(0.002)
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, tr := s.RunColdRecorded("Q6")
	var events uint64
	long := *tr
	long.Streams = make([]trace.Stream, len(tr.Streams))
	for i, st := range tr.Streams {
		events += st.Events
		long.Streams[i] = longForm(t, st)
		sameStream(t, i, long.Streams[i], st)
	}
	perEvent := float64(tr.Bytes()) / float64(events)
	t.Logf("Q6: %d events, %.3f B/event dense, %.3f long", events, perEvent, float64(long.Bytes())/float64(events))
	if perEvent > 1.35 {
		t.Errorf("Q6 records %.3f stream bytes per event, want <= 1.35", perEvent)
	}
	blob, err := trace.Unmarshal(long.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range traceTestConfigs(cfg.Machine)[:2] {
		want, err := ReplayTrace(tr, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, err := ReplayTrace(blob, c.cfg)
		if err != nil {
			t.Fatalf("%s: long-form replay: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: long-form replay diverges from the dense recording", c.name)
		}
	}
}

// longForm re-encodes a stream in the long forms alone: every
// reference as its opcode and zigzagged delta, chunks sealed at the
// writer's 64 KB less 32 bytes of headroom.
func longForm(t *testing.T, st trace.Stream) trace.Stream {
	out := trace.Stream{Refs: st.Refs, Events: st.Events}
	var b []byte
	var last uint64
	cur := st.Cursor()
	var ev trace.Event
	for {
		ok, err := cur.Next(&ev)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if len(b) > 64<<10-32 {
			out.Chunks = append(out.Chunks, b)
			b = nil
		}
		switch ev.Kind {
		case trace.EvRef:
			op := byte(ev.Size - 1)
			if ev.Write {
				op += 0x08
			}
			d := int64(uint64(ev.Addr) - last)
			last = uint64(ev.Addr)
			b = binary.AppendUvarint(append(b, op), uint64(d<<1)^uint64(d>>63))
		case trace.EvBusy:
			b = binary.AppendUvarint(append(b, 0x10), uint64(ev.N))
		case trace.EvSpinAcquire:
			b = binary.AppendUvarint(append(b, 0x11), uint64(ev.Addr))
		case trace.EvSpinRelease:
			b = binary.AppendUvarint(append(b, 0x12), uint64(ev.Addr))
		case trace.EvLockOp:
			op := byte(0x14)
			if ev.Acquire {
				op = 0x13
			}
			b = binary.AppendUvarint(append(b, op, ev.Mode<<2|ev.Level), uint64(ev.RelID))
			b = binary.AppendUvarint(b, uint64(ev.Page))
		}
	}
	if len(b) > 0 {
		out.Chunks = append(out.Chunks, b)
	}
	return out
}

// sameStream decodes two streams in lockstep; they must agree event
// for event.
func sameStream(t *testing.T, i int, a, b trace.Stream) {
	ca, cb := a.Cursor(), b.Cursor()
	for n := 0; ; n++ {
		var ea, eb trace.Event
		oka, erra := ca.Next(&ea)
		okb, errb := cb.Next(&eb)
		if erra != nil || errb != nil {
			t.Fatalf("stream %d: %v, %v", i, erra, errb)
		}
		if oka != okb || ea != eb {
			t.Fatalf("stream %d event %d: long form %+v (%v), recorded %+v (%v)", i, n, ea, oka, eb, okb)
		}
		if !oka {
			return
		}
	}
}
