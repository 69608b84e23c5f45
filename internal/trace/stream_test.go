package trace

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/sched"
	"repro/internal/simm"
)

// testTrace builds a small synthetic trace exercising every event kind
// across multiple chunks (enough refs to seal at least two).
func testTrace() *QueryTrace {
	rec := NewRecorder(2)
	for i := 0; i < 100000; i++ {
		rec.Ref(0, simm.Addr(0x1000+8*i), 8, i%3 == 0)
		if i%100 == 0 {
			rec.BusyEvent(0, int64(i))
		}
	}
	rec.SpinAcquire(0, 0x40)
	rec.SpinRelease(0, 0x40)
	rec.BeginLockOp(0, true, 7, 2, 99, 1)
	rec.EndLockOp(0)
	rec.BeginLockOp(0, false, 7, 2, 99, 1)
	rec.EndLockOp(0)
	rec.Ref(1, 0x2000, 4, false)
	rec.BusyEvent(1, 5)
	return &QueryTrace{
		Query:         "Qx",
		Scale:         0.001,
		Seed:          42,
		Nodes:         2,
		BusyPerAccess: 1,
		SpinBackoff:   50,
		LockCap:       256,
		Layout: simm.Layout{
			Nodes: 2,
			Regions: []simm.LayoutRegion{
				{Name: "R0", Size: 1 << 20, Cat: simm.CatData, Node: 0},
				{Name: "R1", Size: 1 << 16, Cat: simm.CatIndex, Node: simm.AnyNode},
			},
			Cats: []simm.CatRun{{Pages: 4, Cat: simm.CatData}},
		},
		Rows:    []int{3, 4},
		Streams: rec.Streams(),
	}
}

// canon zeroes the fields that are not meaningful for an event's kind.
// Decoders only write the meaningful fields — reused Event buffers keep
// stale values in the rest — so comparisons must go through this.
func canon(ev Event) Event {
	out := Event{Kind: ev.Kind}
	switch ev.Kind {
	case EvRef:
		out.Addr, out.Size, out.Write = ev.Addr, ev.Size, ev.Write
	case EvBusy:
		out.N = ev.N
	case EvSpinAcquire, EvSpinRelease:
		out.Addr = ev.Addr
	case EvLockOp:
		out.Acquire, out.RelID, out.Level, out.Page, out.Mode =
			ev.Acquire, ev.RelID, ev.Level, ev.Page, ev.Mode
	}
	return out
}

// replayBatchEvents decodes one batch through DecodeReplayBatch — the
// decoder replay runs on — and appends it to out as canonical Events,
// so it can be held against Cursor.Next. mkOp parks each lock
// operation's arguments at the tail of out; they rejoin their ReplayOp
// slots in stream order. The caller owns out: reused across batches, a
// warm decode allocates nothing.
func replayBatchEvents(cur *Cursor, buf []sched.ReplayEvent, out []Event) ([]Event, error) {
	base := len(out)
	n, err := cur.DecodeReplayBatch(buf, func(acquire bool, relID uint32, level uint8, page uint32, mode uint8) func(*sched.Proc) {
		out = append(out, Event{Kind: EvLockOp, Acquire: acquire, RelID: relID, Level: level, Page: page, Mode: mode})
		return nil
	})
	ops, next := len(out)-base, base
	for _, rev := range buf[:n] {
		var ev Event
		switch rev.Kind {
		case sched.ReplayRef:
			ev = Event{Kind: EvRef, Addr: rev.Addr, Size: rev.Size, Write: rev.Write}
		case sched.ReplayBusy:
			ev = Event{Kind: EvBusy, N: rev.N}
		case sched.ReplaySpinAcquire:
			ev = Event{Kind: EvSpinAcquire, Addr: rev.Addr}
		case sched.ReplaySpinRelease:
			ev = Event{Kind: EvSpinRelease, Addr: rev.Addr}
		case sched.ReplayOp:
			ev = out[next]
			next++
		}
		out = append(out, ev)
	}
	return append(out[:base], out[base+ops:]...), err
}

func decodeAll(t *testing.T, cur *Cursor) []Event {
	t.Helper()
	var out []Event
	var ev Event
	for {
		ok, err := cur.Next(&ev)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, canon(ev))
	}
}

// TestOpenBlobMatchesUnmarshal pins the streaming reader to the
// in-memory decoder: same metadata, same events, for every stream, and
// what Unmarshal materialises re-encodes to the bytes it was given.
func TestOpenBlobMatchesUnmarshal(t *testing.T) {
	blob := testTrace().Marshal()
	for name, b := range map[string][]byte{"v1": blob, "v2": testStreamTrace().Marshal()} {
		tr, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(tr.Marshal(), b) {
			t.Errorf("%s: Unmarshal(b).Marshal() != b", name)
		}
	}
	tr, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := OpenBlob(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	meta := rd.Meta()
	if meta.Query != tr.Query || meta.Scale != tr.Scale || meta.Seed != tr.Seed ||
		meta.Nodes != tr.Nodes || meta.BusyPerAccess != tr.BusyPerAccess ||
		meta.SpinBackoff != tr.SpinBackoff || meta.LockCap != tr.LockCap {
		t.Fatalf("meta mismatch: %+v vs %+v", meta, tr)
	}
	if len(meta.Streams) != len(tr.Streams) {
		t.Fatalf("streams: %d vs %d", len(meta.Streams), len(tr.Streams))
	}
	before := StreamedBytes()
	for i := range tr.Streams {
		if meta.Streams[i].Refs != tr.Streams[i].Refs || meta.Streams[i].Events != tr.Streams[i].Events {
			t.Fatalf("stream %d stats mismatch", i)
		}
		want := decodeAll(t, tr.StreamCursor(i))
		got := decodeAll(t, rd.StreamCursor(i))
		if len(got) != len(want) {
			t.Fatalf("stream %d: %d events streamed, %d in memory", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("stream %d event %d: %+v != %+v", i, j, got[j], want[j])
			}
		}
	}
	if StreamedBytes() == before {
		t.Fatal("streaming cursors read no bytes")
	}
}

// TestMarshalAllocatesTheBlobOnce pins Marshal's memory: the blob is
// built in the buffer it is returned in, so one Marshal allocates about
// len(blob) — not a payload buffer plus a framed copy of it.
func TestMarshalAllocatesTheBlobOnce(t *testing.T) {
	for name, tr := range map[string]*QueryTrace{"v1": testTrace(), "v2": testStreamTrace()} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		blob := tr.Marshal()
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		if limit := uint64(len(blob))*11/10 + 8<<10; got > limit {
			t.Errorf("%s: Marshal of a %d-byte blob allocated %d bytes, want <= %d", name, len(blob), got, limit)
		}
	}
}

// testStreamTrace builds a synthetic two-segment stream trace: phase 0
// flushed with both processors active, phase 1 unflushed with processor
// 1 idle.
func testStreamTrace() *QueryTrace {
	base := testTrace()
	rec0 := NewRecorder(2)
	for i := 0; i < 30000; i++ {
		rec0.Ref(0, simm.Addr(0x1000+8*i), 8, i%5 == 0)
		rec0.Ref(1, simm.Addr(0x9000+16*i), 4, false)
	}
	rec0.BusyEvent(0, 7)
	rec1 := NewRecorder(2)
	rec1.Ref(0, 0x2000, 8, true)
	rec1.SpinAcquire(0, 0x40)
	rec1.SpinRelease(0, 0x40)
	rec1.BeginLockOp(0, true, 3, 1, 12, 2)
	rec1.EndLockOp(0)
	return &QueryTrace{
		Query:         "stream",
		Scale:         base.Scale,
		Seed:          base.Seed,
		Nodes:         2,
		BusyPerAccess: base.BusyPerAccess,
		SpinBackoff:   base.SpinBackoff,
		LockCap:       base.LockCap,
		Layout:        base.Layout,
		Segments: []Segment{
			{Queries: []string{"Q6", "Q6"}, Flush: true, Rows: []int{5, 6}, Streams: rec0.Streams()},
			{Queries: []string{"Q3+Q6", ""}, Flush: false, Rows: []int{2, 0}, Streams: rec1.Streams()},
		},
	}
}

// TestSegmentedBlobRoundTrip pins the segmented blob format: a stream
// trace survives Marshal/Unmarshal and OpenBlob with identical segment
// metadata and identical per-segment events, and the single-segment
// degenerate view of an unsegmented trace is the trace itself.
func TestSegmentedBlobRoundTrip(t *testing.T) {
	orig := testStreamTrace()
	blob := orig.Marshal()
	tr, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := OpenBlob(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []StreamSource{tr, rd} {
		if n := src.NumSegments(); n != 2 {
			t.Fatalf("NumSegments = %d, want 2", n)
		}
		if !src.SegmentFlush(0) || src.SegmentFlush(1) {
			t.Fatal("segment flush flags lost")
		}
		if len(src.Meta().Streams) != 0 || len(src.Meta().Rows) != 0 {
			t.Fatalf("segmented meta carries top-level rows/streams: %+v", src.Meta())
		}
		for k := 0; k < 2; k++ {
			seg := src.Segment(k)
			meta := seg.Meta()
			want := &orig.Segments[k]
			if meta.Nodes != 2 || meta.Query != "stream" ||
				!equalStrs(meta.ProcQueries, want.Queries) || !equalInts(meta.Rows, want.Rows) {
				t.Fatalf("segment %d meta = %+v, want queries %v rows %v", k, meta, want.Queries, want.Rows)
			}
			if len(meta.Streams) != 2 {
				t.Fatalf("segment %d has %d streams", k, len(meta.Streams))
			}
			for i := 0; i < 2; i++ {
				if meta.Streams[i].Refs != want.Streams[i].Refs ||
					meta.Streams[i].Events != want.Streams[i].Events {
					t.Fatalf("segment %d stream %d stats mismatch", k, i)
				}
				got := decodeAll(t, seg.StreamCursor(i))
				ref := decodeAll(t, orig.Segments[k].Streams[i].Cursor())
				if len(got) != len(ref) {
					t.Fatalf("segment %d stream %d: %d events, want %d", k, i, len(got), len(ref))
				}
				for j := range ref {
					if got[j] != ref[j] {
						t.Fatalf("segment %d stream %d event %d: %+v != %+v", k, i, j, got[j], ref[j])
					}
				}
			}
		}
	}

	// An unsegmented trace is its own single segment, flushed.
	single := testTrace()
	if single.NumSegments() != 1 || !single.SegmentFlush(0) || single.Segment(0) != Source(single) {
		t.Fatal("single-query trace is not its own only segment")
	}
	sblob := single.Marshal()
	srd, err := OpenBlob(bytes.NewReader(sblob), int64(len(sblob)))
	if err != nil {
		t.Fatal(err)
	}
	if srd.NumSegments() != 1 || !srd.SegmentFlush(0) || srd.Segment(0) != Source(srd) {
		t.Fatal("single-query reader is not its own only segment")
	}
	// And its blob stays on version 1: byte 12 (after magic+crc) is the
	// payload's version varint.
	if sblob[12] != 1 {
		t.Fatalf("unsegmented blob version byte = %d, want 1", sblob[12])
	}
	if blob[12] != 2 {
		t.Fatalf("segmented blob version byte = %d, want 2", blob[12])
	}
}

func equalStrs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestOpenBlobRejectsDamage mirrors Unmarshal's corruption contract:
// truncation and bit flips are errors up front, never short replays.
func TestOpenBlobRejectsDamage(t *testing.T) {
	blob := testTrace().Marshal()
	seg := testStreamTrace().Marshal()
	cases := map[string][]byte{
		"empty":          {},
		"short":          blob[:8],
		"badmagic":       append([]byte("XXXXXXXX"), blob[8:]...),
		"truncated":      blob[:len(blob)/2],
		"one-short":      blob[:len(blob)-1],
		"bitflip":        flipBit(blob, len(blob)/2),
		"early-flip":     flipBit(blob, 20),
		"seg-truncated":  seg[:len(seg)/2],
		"seg-one-short":  seg[:len(seg)-1],
		"seg-bitflip":    flipBit(seg, len(seg)/2),
		"seg-early-flip": flipBit(seg, 20),
	}
	entries := map[string]func([]byte) error{
		"OpenBlob":  func(b []byte) error { _, err := OpenBlob(bytes.NewReader(b), int64(len(b))); return err },
		"Unmarshal": func(b []byte) error { _, err := Unmarshal(b); return err },
	}
	for name, b := range cases {
		for entry, open := range entries {
			if open(b) == nil {
				t.Errorf("%s: %s accepted damaged blob", name, entry)
			}
		}
	}
}

func flipBit(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x40
	return out
}

// TestDecodeBatchMatchesNext pins the replay batch decoder to per-event
// decode, including across chunk boundaries and odd batch sizes.
func TestDecodeBatchMatchesNext(t *testing.T) {
	tr := testTrace()
	for i := range tr.Streams {
		want := decodeAll(t, tr.StreamCursor(i))
		for _, size := range []int{1, 7, 4096} {
			cur := tr.StreamCursor(i)
			buf := make([]sched.ReplayEvent, size)
			var got []Event
			for {
				k := len(got)
				var err error
				if got, err = replayBatchEvents(cur, buf, got); err != nil {
					t.Fatalf("stream %d batch %d: %v", i, size, err)
				}
				if len(got) == k {
					break
				}
			}
			if len(got) != len(want) {
				t.Fatalf("stream %d batch %d: %d events, want %d", i, size, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("stream %d batch %d event %d mismatch", i, size, j)
				}
			}
		}
	}
}
