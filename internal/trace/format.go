package trace

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/sched"
	"repro/internal/simm"
)

// The recorded stream is the shared reference-stream definition of this
// package: the simulator's capture/replay engine and the Section-3
// locality analysis both consume it. One stream per simulated
// processor, a flat byte sequence of variable-length events:
//
//	0x00..0x07  read, size = low3+1; zigzag-varint address delta
//	0x08..0x0F  write, size = low3+1; zigzag-varint address delta
//	0x10        busy; uvarint cycles
//	0x11        spinlock acquire; uvarint absolute address
//	0x12        spinlock release; uvarint absolute address
//	0x13        data-lock acquire; byte mode<<2|level, uvarint relID, uvarint page
//	0x14        data-lock release; byte mode<<2|level, uvarint relID, uvarint page
//	0x15        stride run; byte n in 1..255: the previous data reference
//	            repeats n more times, with its size, write flag and delta
//	0x80..0xFF  short reference, 1wsskkkk: write = w, size = 1<<ss,
//	            address delta = (kkkk-8)*size
//
// Data references are recorded verbatim: they are a pure function of
// (query, scale, seed), invariant across the cache geometries the
// sweeps explore. Synchronization is recorded as *operations*: the raw
// probe/spin/backoff traffic of a spinlock or lock-manager call depends
// on cross-processor timing, so a replay re-executes the operation live
// against real (zero-initialized = released/empty) lock state and the
// traffic re-emerges correctly for the configuration under replay.
//
// Address deltas are relative to the previous data reference of the
// same stream (initially 0); spin addresses are absolute and do not
// disturb the delta chain, nor does any event break the reference a
// stride run repeats. A run with n = 0 or before the stream's first
// reference is malformed; since n is one byte, a chunk decodes to at
// most ~128 events per byte and every cursor ends. Events never
// straddle chunk boundaries. The writer uses the dense forms (0x15,
// 0x80..0xFF) wherever they fit. The long forms stay valid, so blobs
// written before the dense forms decode unchanged; a decoder from
// before them rejects a dense stream as an unknown opcode, and its
// replay falls back to execution rather than produce a wrong report.
const (
	opReadBase  = 0x00
	opWriteBase = 0x08
	opBusy      = 0x10
	opSpinAcq   = 0x11
	opSpinRel   = 0x12
	opLockAcq   = 0x13
	opLockRel   = 0x14
	opRun       = 0x15
	opShort     = 0x80

	// maxRun is the longest run one opcode carries; the writer splits
	// longer ones.
	maxRun = 255

	// chunkSize bounds a stream chunk; maxEvent is the worst-case
	// encoded event (opcode + three 10-byte varints), the headroom at
	// which the writer seals a chunk.
	chunkSize = 64 << 10
	maxEvent  = 32
)

// Stream is one processor's recorded event stream.
type Stream struct {
	Chunks [][]byte
	Refs   uint64 // data references (replayed verbatim)
	Events uint64 // all events, including synchronization operations
}

// Bytes returns the encoded size.
func (s *Stream) Bytes() int {
	n := 0
	for _, c := range s.Chunks {
		n += len(c)
	}
	return n
}

// Segment is one phase of a recorded stream workload: the per-processor
// streams and result rows of that phase, recorded on whatever warm
// system state the previous phases left behind. Each segment replays
// independently (phase boundaries reset the clocks), so a stream trace
// is a sequence of self-contained replays sharing one layout.
type Segment struct {
	// Queries are the per-processor query labels of the phase ("" =
	// idle; multi-run processors join their labels with "+").
	Queries []string
	// Flush records that the phase started from flushed caches; replay
	// must flush at the same boundary to reproduce the recorded run.
	Flush   bool
	Rows    []int // per-processor result rows of the phase
	Streams []Stream
}

// QueryTrace is one recorded cold query execution: everything a replay
// needs to re-derive the run's report under any cache geometry, without
// the executor or the generated database.
type QueryTrace struct {
	Query string
	Scale float64
	Seed  uint64
	Nodes int

	// Front-end cost model of the recorded run (sched.Config), so a
	// self-contained blob replays with the clocks it was captured under.
	BusyPerAccess int64
	SpinBackoff   int64

	// LockCap is the lock-manager hash tables' slot count, for
	// re-attaching a live lock manager to the reconstructed space.
	LockCap uint64

	Layout  simm.Layout
	Rows    []int // per-processor result rows of the recorded run
	Streams []Stream

	// ProcQueries are per-processor query labels when processors ran
	// different queries (len == Nodes); empty means every processor ran
	// Query. In-memory only: the single-query blob encoding never needs
	// it, and segment blobs carry labels per segment.
	ProcQueries []string

	// Segments, when non-empty, make this a stream trace: Rows and
	// Streams are empty at the top level and each phase carries its
	// own. Stream traces marshal under the segmented blob version and
	// replay one segment at a time (see StreamSource).
	Segments []Segment
}

// Bytes returns the total encoded stream size (the metrics gauge).
func (t *QueryTrace) Bytes() int {
	n := 0
	for i := range t.Streams {
		n += t.Streams[i].Bytes()
	}
	for s := range t.Segments {
		for i := range t.Segments[s].Streams {
			n += t.Segments[s].Streams[i].Bytes()
		}
	}
	return n
}

// chunkPool recycles sealed chunk buffers. The execute-as-replay path
// records a run's streams, replays them once, and discards them, so
// without reuse the 64KB chunk backing arrays dominate its allocation
// profile. Only full-capacity buffers circulate; anything else
// (test-crafted chunks, decoded-blob views) is left to the GC.
var chunkPool = sync.Pool{New: func() any { return make([]byte, 0, chunkSize) }}

// ReleaseStreams returns the streams' chunk buffers to the shared
// chunk pool and clears the slices. Call it only for a transient
// capture the caller owns exclusively, after every cursor over it has
// finished — released buffers are reused by the next recording.
func ReleaseStreams(streams []Stream) {
	for i := range streams {
		for _, c := range streams[i].Chunks {
			if cap(c) == chunkSize {
				chunkPool.Put(c[:0])
			}
		}
		streams[i] = Stream{}
	}
}

// streamWriter encodes events into sealed chunks.
type streamWriter struct {
	chunks [][]byte
	cur    []byte
	last   uint64 // previous data-reference address
	refs   uint64
	events uint64

	// The previous reference's delta, size (0 before the first) and
	// write flag, which a stride run repeats; short is its one-byte form
	// (0 if it has none), and run counts the repeats not yet written.
	delta uint64
	size  int
	write bool
	short byte
	run   int
}

func (w *streamWriter) ensure() {
	if cap(w.cur)-len(w.cur) < maxEvent {
		if w.cur != nil {
			w.chunks = append(w.chunks, w.cur)
		}
		w.cur = chunkPool.Get().([]byte)[:0]
	}
}

func (w *streamWriter) uvarint(v uint64) {
	for v >= 0x80 {
		w.cur = append(w.cur, byte(v)|0x80)
		v >>= 7
	}
	w.cur = append(w.cur, byte(v))
}

func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// shortRef returns a reference's one-byte form, or 0 when its size is
// not 1, 2, 4 or 8 or its delta is not k*size for k in [-8, 7].
func shortRef(d uint64, size int, write bool) byte {
	if size&(size-1) != 0 {
		return 0
	}
	cls := uint(bits.TrailingZeros(uint(size)))
	k := int64(d) >> cls
	if k<<cls != int64(d) || k < -8 || k > 7 {
		return 0
	}
	op := opShort | byte(cls)<<4 | byte(k+8)
	if write {
		op |= 0x40
	}
	return op
}

func (w *streamWriter) ref(a uint64, size int, write bool) {
	if size < 1 || size > 8 {
		panic(fmt.Sprintf("trace: reference size %d out of range", size))
	}
	d := a - w.last
	w.last = a
	w.refs++
	w.events++
	if d == w.delta && size == w.size && write == w.write {
		if w.run++; w.run == maxRun {
			w.flush()
		}
		return
	}
	w.flush()
	w.delta, w.size, w.write = d, size, write
	w.short = shortRef(d, size, write)
	w.ensure()
	if w.short != 0 {
		w.cur = append(w.cur, w.short)
		return
	}
	op := byte(opReadBase + size - 1)
	if write {
		op = byte(opWriteBase + size - 1)
	}
	w.cur = append(w.cur, op)
	w.uvarint(zigzag(int64(d)))
}

// flush writes the pending stride run; one repeat of a reference with
// a short form is that form itself, a byte shorter.
func (w *streamWriter) flush() {
	if w.run == 0 {
		return
	}
	w.ensure()
	if w.run == 1 && w.short != 0 {
		w.cur = append(w.cur, w.short)
	} else {
		w.cur = append(w.cur, opRun, byte(w.run))
	}
	w.run = 0
}

func (w *streamWriter) op1(op byte, v uint64) {
	w.flush()
	w.ensure()
	w.cur = append(w.cur, op)
	w.uvarint(v)
	w.events++
}

func (w *streamWriter) lockOp(acquire bool, relID uint32, level uint8, page uint32, mode uint8) {
	w.flush()
	w.ensure()
	op := byte(opLockRel)
	if acquire {
		op = opLockAcq
	}
	w.cur = append(w.cur, op, mode<<2|level)
	w.uvarint(uint64(relID))
	w.uvarint(uint64(page))
	w.events++
}

func (w *streamWriter) stream() Stream {
	w.flush()
	chunks := w.chunks
	if len(w.cur) > 0 {
		chunks = append(chunks, w.cur)
	}
	return Stream{Chunks: chunks, Refs: w.refs, Events: w.events}
}

// streamReader decodes a stream chunk by chunk. Events never straddle
// chunks, so chunk exhaustion only happens at event boundaries. Chunks
// come either from an in-memory slice (a decoded blob) or, when fill is
// set, on demand from a streaming source that reads them from disk one
// at a time — the decode loop is identical either way.
type streamReader struct {
	chunks [][]byte
	ci     int
	fill   func() ([]byte, error) // optional; nil chunk + nil error = end of stream
	cur    []byte
	off    int
	last   uint64

	// The previous reference's delta, size (0 before the first) and
	// write flag; rep counts the references still to be returned from
	// the current reference or run.
	delta uint64
	size  int
	write bool
	rep   int
}

func (r *streamReader) more() (bool, error) {
	for r.off >= len(r.cur) {
		if r.ci < len(r.chunks) {
			r.cur, r.off = r.chunks[r.ci], 0
			r.ci++
			continue
		}
		if r.fill == nil {
			return false, nil
		}
		c, err := r.fill()
		if err != nil {
			return false, err
		}
		if c == nil {
			return false, nil
		}
		r.cur, r.off = c, 0
	}
	return true, nil
}

func (r *streamReader) byte() (byte, error) {
	if r.off >= len(r.cur) {
		return 0, fmt.Errorf("trace: truncated event")
	}
	b := r.cur[r.off]
	r.off++
	return b, nil
}

func (r *streamReader) uvarint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 70; shift += 7 {
		b, err := r.byte()
		if err != nil {
			return 0, err
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
	}
	return 0, fmt.Errorf("trace: varint overflow")
}

// EventKind discriminates decoded stream events.
type EventKind uint8

const (
	EvRef EventKind = iota
	EvBusy
	EvSpinAcquire
	EvSpinRelease
	EvLockOp
)

// Event is one decoded stream event. Fields beyond Kind are valid per
// kind: Addr/Size/Write for EvRef, Addr for the spin events, N for
// EvBusy, and Acquire/RelID/Level/Page/Mode for EvLockOp.
type Event struct {
	Kind    EventKind
	Addr    simm.Addr
	Size    int
	Write   bool
	N       int64
	Acquire bool
	RelID   uint32
	Level   uint8
	Page    uint32
	Mode    uint8
}

// Cursor decodes a stream: Next is the per-event reference decoder,
// DecodeReplayBatch the batched form the replay driver consumes.
type Cursor struct {
	r streamReader
}

// Cursor returns a fresh decoder positioned at the stream's start.
func (s *Stream) Cursor() *Cursor {
	return &Cursor{r: streamReader{chunks: s.Chunks}}
}

// Next decodes the next event into ev. It returns false at the end of
// the stream, and an error on a truncated event, unknown opcode or
// malformed run.
func (c *Cursor) Next(ev *Event) (bool, error) {
	r := &c.r
	if r.rep == 0 {
		if ok, err := r.more(); !ok {
			return false, err
		}
		if ref, err := r.event(ev); err != nil || !ref {
			return err == nil, err
		}
	}
	r.rep--
	r.last += r.delta
	ev.Kind = EvRef
	ev.Addr = simm.Addr(r.last)
	ev.Size = r.size
	ev.Write = r.write
	return true, nil
}

// event decodes the event at the read position (more must have
// succeeded). A data reference, in any of its three forms, is not
// returned in ev: event loads its shape and count into r.delta, size,
// write and rep, and reports ref. Any other event is decoded into ev.
//
// A short reference is one byte. Long references and busy charges
// decode through a direct-indexing fast path when the whole event is
// guaranteed resident in the current chunk (the writer seals chunks at
// maxEvent headroom, so only a chunk's tail event can fall through).
// Chunk tails, runs, synchronization events, and malformed input take
// the careful byte-at-a-time path below.
func (r *streamReader) event(ev *Event) (ref bool, err error) {
	op := r.cur[r.off]
	if op >= opShort {
		r.off++
		r.short(op)
		return true, nil
	}
	if op <= opBusy && len(r.cur)-r.off >= maxEvent {
		b := r.cur
		i := r.off + 1
		var u uint64
		var shift uint
		for {
			x := b[i]
			i++
			u |= uint64(x&0x7f) << shift
			if x < 0x80 {
				break
			}
			shift += 7
			if shift >= 70 {
				return false, fmt.Errorf("trace: varint overflow")
			}
		}
		r.off = i
		if op < opBusy {
			r.longRef(op, u)
			return true, nil
		}
		ev.Kind = EvBusy
		ev.N = int64(u)
		return false, nil
	}
	r.off++
	switch {
	case op < opBusy:
		u, err := r.uvarint()
		if err != nil {
			return false, err
		}
		r.longRef(op, u)
		return true, nil
	case op == opRun:
		n, err := r.byte()
		if err != nil {
			return false, err
		}
		if n == 0 || r.size == 0 {
			return false, fmt.Errorf("trace: stride run of %d, or before any reference", n)
		}
		r.rep = int(n)
		return true, nil
	case op == opBusy:
		n, err := r.uvarint()
		if err != nil {
			return false, err
		}
		ev.Kind = EvBusy
		ev.N = int64(n)
	case op == opSpinAcq || op == opSpinRel:
		a, err := r.uvarint()
		if err != nil {
			return false, err
		}
		ev.Kind = EvSpinAcquire
		if op == opSpinRel {
			ev.Kind = EvSpinRelease
		}
		ev.Addr = simm.Addr(a)
	case op == opLockAcq || op == opLockRel:
		ml, err := r.byte()
		if err != nil {
			return false, err
		}
		relID, err := r.uvarint()
		if err != nil {
			return false, err
		}
		page, err := r.uvarint()
		if err != nil {
			return false, err
		}
		ev.Kind = EvLockOp
		ev.Acquire = op == opLockAcq
		ev.RelID = uint32(relID)
		ev.Level = ml & 3
		ev.Page = uint32(page)
		ev.Mode = ml >> 2
	default:
		return false, fmt.Errorf("trace: unknown opcode %#x", op)
	}
	return false, nil
}

// short loads a short reference, opcode op.
func (r *streamReader) short(op byte) {
	cls := uint(op>>4) & 3
	r.delta = uint64(int64(op&15)-8) << cls
	r.size = 1 << cls
	r.write = op&0x40 != 0
	r.rep = 1
}

// longRef loads a long-form reference: opcode op, zigzagged delta u.
func (r *streamReader) longRef(op byte, u uint64) {
	r.delta = uint64(unzigzag(u))
	r.size = int(op&7) + 1
	r.write = op >= opWriteBase
	r.rep = 1
}

// DecodeReplayBatch decodes up to len(evs) events into evs, in the
// scheduler's replay form, and returns how many it wrote. n == 0 (with a
// nil error) means the end of the stream; a decode error may follow a
// short batch — the events before the error are valid and returned.
// Batch decode is the replay's unit of work: the driver calls it
// between turns, refilling one reused buffer per stream. Every data
// reference — short, long or repeated by a run — is written straight
// into evs from the shape loaded into the reader, as many of a run's
// repeats at once as the batch has room for. The other kinds are
// converted from event's Event, with lock-manager operations (the one
// kind whose replay form is a closure over live lock state the decoder
// cannot build) going through mkOp. Stale fields from a recycled
// buffer slot are left in place for kinds that do not use them.
func (c *Cursor) DecodeReplayBatch(evs []sched.ReplayEvent,
	mkOp func(acquire bool, relID uint32, level uint8, page uint32, mode uint8) func(*sched.Proc)) (int, error) {
	r := &c.r
	n := 0
	for n < len(evs) {
		if r.rep > 0 {
			k := min(r.rep, len(evs)-n)
			r.rep -= k
			for end := n + k; n < end; n++ {
				r.last += r.delta
				ev := &evs[n]
				ev.Kind = sched.ReplayRef
				ev.Addr = simm.Addr(r.last)
				ev.Size = r.size
				ev.Write = r.write
			}
			continue
		}
		if ok, err := r.more(); !ok {
			return n, err
		}
		if op := r.cur[r.off]; op >= opShort {
			r.off++
			r.short(op)
			continue
		}
		var tmp Event
		ref, err := r.event(&tmp)
		if err != nil {
			return n, err
		}
		if ref {
			continue
		}
		ev := &evs[n]
		n++
		switch tmp.Kind {
		case EvBusy:
			ev.Kind, ev.N = sched.ReplayBusy, tmp.N
		case EvSpinAcquire:
			ev.Kind, ev.Addr = sched.ReplaySpinAcquire, tmp.Addr
		case EvSpinRelease:
			ev.Kind, ev.Addr = sched.ReplaySpinRelease, tmp.Addr
		case EvLockOp:
			ev.Kind = sched.ReplayOp
			ev.Op = mkOp(tmp.Acquire, tmp.RelID, tmp.Level, tmp.Page, tmp.Mode)
		}
	}
	return n, nil
}

// Source is anything a replay can run from: the trace metadata plus a
// per-processor stream of decoded events. *QueryTrace (a fully decoded
// in-memory blob) and *Reader (a streaming view over an undecoded blob)
// both implement it, so the replay engine is agnostic to whether the
// trace is resident or streamed chunk-by-chunk from disk.
type Source interface {
	Meta() *QueryTrace
	StreamCursor(i int) *Cursor
}

// StreamSource is a Source that is (or degenerates to) a sequence of
// independently replayable phase segments. A single-query trace is a
// one-segment stream whose only segment starts flushed, so stream-aware
// replay drivers handle both shapes through this one interface.
// *QueryTrace and *Reader both implement it.
type StreamSource interface {
	Source
	// NumSegments is the phase count (>= 1).
	NumSegments() int
	// Segment returns phase k as a self-contained Source: its Meta
	// carries the segment's rows, per-processor labels, and stream
	// stats under the shared layout and cost model.
	Segment(k int) Source
	// SegmentFlush reports whether phase k started from flushed caches.
	SegmentFlush(k int) bool
}

// Meta returns the trace itself: a decoded QueryTrace is its own
// metadata.
func (t *QueryTrace) Meta() *QueryTrace { return t }

// StreamCursor returns a decoder over processor i's in-memory stream.
func (t *QueryTrace) StreamCursor(i int) *Cursor { return t.Streams[i].Cursor() }

// NumSegments returns the phase count: a single-query trace is one
// segment.
func (t *QueryTrace) NumSegments() int {
	if len(t.Segments) == 0 {
		return 1
	}
	return len(t.Segments)
}

// Segment returns phase k as a self-contained Source. A single-query
// trace is its own only segment; a stream trace derives a per-segment
// view sharing the layout and chunk storage.
func (t *QueryTrace) Segment(k int) Source {
	if len(t.Segments) == 0 {
		if k != 0 {
			panic(fmt.Sprintf("trace: segment %d of a single-segment trace", k))
		}
		return t
	}
	seg := &t.Segments[k]
	d := *t
	d.Segments = nil
	d.ProcQueries = seg.Queries
	d.Rows = seg.Rows
	d.Streams = seg.Streams
	return &d
}

// SegmentFlush reports whether phase k started from flushed caches. A
// single-query trace records a cold run, so its one segment is flushed.
func (t *QueryTrace) SegmentFlush(k int) bool {
	if len(t.Segments) == 0 {
		return true
	}
	return t.Segments[k].Flush
}
