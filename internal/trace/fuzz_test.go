package trace

import (
	"bytes"
	"testing"

	"repro/internal/sched"
	"repro/internal/simm"
)

// FuzzTraceChunkDecode throws arbitrary bytes at both layers of the
// trace decoder. The contract under fuzz:
//
//   - never panic, on any input;
//   - per-event decode (Cursor.Next) and the replay batch decoder
//     (DecodeReplayBatch) accept exactly the same inputs and yield
//     identical event sequences — a short batch is always followed by
//     the same error;
//   - Unmarshal (chunks aliased in memory) and OpenBlob (chunks read
//     on demand) accept exactly the same blobs and decode identical
//     events, so truncated or corrupt blobs surface errors up front on
//     both paths and a streamed replay can never silently run short.
func FuzzTraceChunkDecode(f *testing.F) {
	tr := testFuzzTrace()
	blob := tr.Marshal()
	f.Add(blob)
	f.Add(blob[:len(blob)-3])
	f.Add(blob[:len(blob)/2])
	f.Add(flipBit(blob, len(blob)/2))
	f.Add(flipBit(blob, 15))
	f.Add(tr.Streams[0].Chunks[0])
	f.Add([]byte{opBusy, 0x80}) // truncated varint
	f.Add([]byte{0x15})         // unknown opcode
	seg := testStreamTrace().Marshal()
	f.Add(seg)
	f.Add(seg[:len(seg)-3])
	f.Add(flipBit(seg, len(seg)/2))
	f.Add(flipBit(seg, 15))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkChunkDecode(t, data)
		checkBlobDecode(t, data)
	})
}

func testFuzzTrace() *QueryTrace {
	rec := NewRecorder(1)
	for i := 0; i < 300; i++ {
		rec.Ref(0, simm.Addr(0x1000+8*i), 8, i%2 == 0)
	}
	rec.BusyEvent(0, 17)
	rec.SpinAcquire(0, 0x40)
	rec.SpinRelease(0, 0x40)
	rec.BeginLockOp(0, true, 3, 1, 12, 2)
	rec.EndLockOp(0)
	tr := testTrace() // full multi-stream trace from stream_test.go
	tr.Streams = rec.Streams()
	tr.Nodes = 1
	tr.Rows = []int{1}
	return tr
}

// checkChunkDecode treats data as one raw stream chunk and decodes it
// per-event and batched; both must agree event for event and error for
// error.
func checkChunkDecode(t *testing.T, data []byte) {
	s := &Stream{Chunks: [][]byte{data}}

	var evs []Event
	var ev Event
	cur := s.Cursor()
	var nextErr error
	for {
		ok, err := cur.Next(&ev)
		if err != nil {
			nextErr = err
			break
		}
		if !ok {
			break
		}
		evs = append(evs, canon(ev))
	}

	bcur := s.Cursor()
	buf := make([]sched.ReplayEvent, 7) // odd size: batches end mid-chunk
	var bevs []Event
	var batchErr error
	for {
		batch, err := replayBatchEvents(bcur, buf)
		bevs = append(bevs, batch...)
		if err != nil {
			batchErr = err
			break
		}
		if len(batch) == 0 {
			break
		}
	}

	if (nextErr == nil) != (batchErr == nil) {
		t.Fatalf("decode disagreement: Next err %v, DecodeReplayBatch err %v", nextErr, batchErr)
	}
	if len(evs) != len(bevs) {
		t.Fatalf("Next decoded %d events, DecodeReplayBatch %d", len(evs), len(bevs))
	}
	for i := range evs {
		if evs[i] != bevs[i] {
			t.Fatalf("event %d: Next %+v, DecodeReplayBatch %+v", i, evs[i], bevs[i])
		}
	}
}

// checkBlobDecode treats data as a whole blob: the in-memory and
// streaming openers must agree on validity, and on a valid blob every
// stream must decode identically through both.
func checkBlobDecode(t *testing.T, data []byte) {
	tr, uerr := Unmarshal(data)
	rd, oerr := OpenBlob(bytes.NewReader(data), int64(len(data)))
	if (uerr == nil) != (oerr == nil) {
		t.Fatalf("open disagreement: Unmarshal err %v, OpenBlob err %v", uerr, oerr)
	}
	if uerr != nil {
		return
	}
	meta := rd.Meta()
	if meta.Query != tr.Query || meta.Nodes != tr.Nodes || len(meta.Streams) != len(tr.Streams) {
		t.Fatalf("meta disagreement: %+v vs %+v", meta, tr)
	}
	if tr.NumSegments() != rd.NumSegments() {
		t.Fatalf("segment disagreement: %d vs %d", tr.NumSegments(), rd.NumSegments())
	}
	for k := 0; k < len(tr.Segments); k++ {
		if tr.SegmentFlush(k) != rd.SegmentFlush(k) {
			t.Fatalf("segment %d flush disagreement", k)
		}
		compareStreams(t, tr.Segment(k), rd.Segment(k))
	}
	if len(tr.Segments) == 0 {
		compareStreams(t, tr, rd)
	}
}

// compareStreams decodes every stream of two sources in lockstep; they
// must agree event for event and error for error.
func compareStreams(t *testing.T, mem, st Source) {
	for i := range mem.Meta().Streams {
		mc, sc := mem.StreamCursor(i), st.StreamCursor(i)
		var mev, sev Event
		for {
			mok, merr := mc.Next(&mev)
			sok, serr := sc.Next(&sev)
			if mok != sok || (merr == nil) != (serr == nil) {
				t.Fatalf("stream %d: in-memory (%v,%v) vs streamed (%v,%v)", i, mok, merr, sok, serr)
			}
			if merr != nil || !mok {
				break
			}
			if canon(mev) != canon(sev) {
				t.Fatalf("stream %d: %+v != %+v", i, mev, sev)
			}
		}
	}
}
