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
	f.Add([]byte{0x16})         // unknown opcode
	var short []byte            // every size class at k = -8 and k = 7, read and write
	for op := 0; op < 0x80; op += 0x10 {
		short = append(short, byte(opShort|op), byte(opShort|op|15))
	}
	f.Add(short)
	f.Add([]byte{opShort | 0x38, opRun, 20, opBusy, 3, opRun, 1}) // runs crossing the 7-event batch boundary
	f.Add([]byte{opRun, 3})                                       // run before any reference
	f.Add([]byte{opShort | 0x39, opRun, 0})                       // empty run
	f.Add([]byte{opShort | 0x39, opRun})                          // truncated run
	f.Add(runAcrossChunks())
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

// runAcrossChunks is a blob whose one stream is two chunks, the second
// a run repeating the reference that ends the first, so a cursor's run
// state must carry across the chunk boundary in memory and streamed.
func runAcrossChunks() []byte {
	tr := testFuzzTrace()
	tr.Streams = []Stream{{
		Chunks: [][]byte{{opWriteBase + 3, 0x10}, {opRun, 9, opShort | 0x20}},
		Refs:   11,
		Events: 11,
	}}
	return tr.Marshal()
}

// checkChunkDecode treats data as one raw stream chunk and decodes it
// per-event and batched, in lockstep: each event Next yields is held
// against the next one the batched cursor produced, so neither side
// ever holds more than one 7-event batch, and every batch is decoded
// into the same slice. Both must agree event for event, in count, and
// on whether decoding ended in an error.
func checkChunkDecode(t *testing.T, data []byte) {
	s := &Stream{Chunks: [][]byte{data}}
	bcur := s.Cursor()
	buf := make([]sched.ReplayEvent, 7) // odd size: batches end mid-chunk
	var batch, pending []Event          // pending is batch's undelivered tail
	var batchErr error
	batchDone := false
	refill := func() {
		for len(pending) == 0 && !batchDone {
			var err error
			batch, err = replayBatchEvents(bcur, buf, batch[:0])
			pending = batch
			if err != nil {
				batchErr, batchDone = err, true
			} else if len(pending) == 0 {
				batchDone = true
			}
		}
	}

	cur := s.Cursor()
	var ev Event
	var nextErr error
	n := 0
	for {
		ok, err := cur.Next(&ev)
		if err != nil {
			nextErr = err
			break
		}
		if !ok {
			break
		}
		refill()
		if len(pending) == 0 {
			t.Fatalf("Next decoded more than the %d events DecodeReplayBatch did", n)
		}
		if c := canon(ev); c != pending[0] {
			t.Fatalf("event %d: Next %+v, DecodeReplayBatch %+v", n, c, pending[0])
		}
		pending = pending[1:]
		n++
	}
	refill()
	if len(pending) > 0 {
		t.Fatalf("Next decoded %d events, DecodeReplayBatch more", n)
	}
	if (nextErr == nil) != (batchErr == nil) {
		t.Fatalf("decode disagreement: Next err %v, DecodeReplayBatch err %v", nextErr, batchErr)
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
