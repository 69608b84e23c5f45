package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync/atomic"

	"repro/internal/simm"
)

// Streaming blob access: OpenBlob is the one parser of the "DSSTRC01"
// framing (Unmarshal opens its bytes through it). It reads an
// io.ReaderAt without retaining the stream chunk bytes: one sequential
// pass reads the payload in 64KB sections, folding every byte into the
// CRC while parsing the structure, and records each stream chunk's
// (offset, length) instead of its contents. Corruption and truncation
// are therefore detected up front, but replaying a trace holds at most
// one chunk per stream resident, keeping memory flat as traces grow.

var streamedBytes atomic.Uint64

// StreamedBytes reports the total stream-chunk bytes read on demand by
// streaming cursors since process start (the metrics gauge).
func StreamedBytes() uint64 { return streamedBytes.Load() }

// chunkRef locates one stream chunk inside the blob.
type chunkRef struct {
	off int64
	n   int
}

// Reader is a streaming view over an encoded blob: the decoded metadata
// (header, layout, rows, stream stats) plus chunk offsets, with the
// chunk bytes themselves left on the source until a cursor needs them.
// It implements Source (and StreamSource), so replays run from it
// directly. A Reader is safe for concurrent cursors as long as the
// underlying ReaderAt is (os.File and bytes.Reader both are).
type Reader struct {
	src  io.ReaderAt
	meta QueryTrace // Streams carry Refs/Events only; Chunks stay nil
	// chunks is indexed [segment][processor][chunk]; a version-1 blob
	// is one segment.
	chunks [][][]chunkRef
}

// Meta returns the trace metadata. The returned QueryTrace has empty
// stream chunks — it describes the trace, it does not hold it.
func (r *Reader) Meta() *QueryTrace { return &r.meta }

// cursorFor builds a decoder that reads the referenced chunks from the
// source on demand into one reusable buffer.
func (r *Reader) cursorFor(refs []chunkRef) *Cursor {
	var buf []byte
	k := 0
	fill := func() ([]byte, error) {
		if k >= len(refs) {
			return nil, nil
		}
		cr := refs[k]
		k++
		if cr.n > len(buf) {
			buf = make([]byte, cr.n)
		}
		b := buf[:cr.n]
		if err := readAtFull(r.src, b, cr.off); err != nil {
			return nil, fmt.Errorf("trace: reading stream chunk: %w", err)
		}
		streamedBytes.Add(uint64(cr.n))
		return b, nil
	}
	return &Cursor{r: streamReader{fill: fill}}
}

// StreamCursor returns a decoder over processor i's stream (of the
// first segment, which for a single-query blob is the whole trace).
func (r *Reader) StreamCursor(i int) *Cursor { return r.cursorFor(r.chunks[0][i]) }

// NumSegments returns the blob's phase count (1 for a version-1 blob).
func (r *Reader) NumSegments() int {
	if len(r.meta.Segments) == 0 {
		return 1
	}
	return len(r.meta.Segments)
}

// Segment returns phase k as a self-contained streaming Source sharing
// this Reader's underlying blob.
func (r *Reader) Segment(k int) Source {
	if len(r.meta.Segments) == 0 {
		if k != 0 {
			panic(fmt.Sprintf("trace: segment %d of a single-segment trace", k))
		}
		return r
	}
	seg := &r.meta.Segments[k]
	meta := r.meta
	meta.Segments = nil
	meta.ProcQueries = seg.Queries
	meta.Rows = seg.Rows
	meta.Streams = seg.Streams
	return &readerSeg{r: r, k: k, meta: meta}
}

// SegmentFlush reports whether phase k started from flushed caches.
func (r *Reader) SegmentFlush(k int) bool {
	if len(r.meta.Segments) == 0 {
		return true
	}
	return r.meta.Segments[k].Flush
}

// readerSeg is one phase of a segmented blob as a streaming Source.
type readerSeg struct {
	r    *Reader
	k    int
	meta QueryTrace
}

func (s *readerSeg) Meta() *QueryTrace { return &s.meta }

func (s *readerSeg) StreamCursor(i int) *Cursor { return s.r.cursorFor(s.r.chunks[s.k][i]) }

func readAtFull(src io.ReaderAt, p []byte, off int64) error {
	n, err := src.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// payloadReader walks the blob payload front to back through a bounded
// window, CRC-ing every section as it is fetched. Varints follow
// binary.Uvarint semantics (at most ten bytes, no overflow).
type payloadReader struct {
	src  io.ReaderAt
	base int64 // payload start within src
	size int64 // payload length
	read int64 // bytes fetched (and CRC'd) so far
	w    []byte
	buf  []byte
	crc  uint32
}

// consumed is the parse position within the payload.
func (p *payloadReader) consumed() int64 { return p.read - int64(len(p.w)) }

func (p *payloadReader) refill() error {
	if len(p.w) > 0 {
		return nil
	}
	if p.read >= p.size {
		return fmt.Errorf("trace: truncated blob")
	}
	n := int64(len(p.buf))
	if rem := p.size - p.read; rem < n {
		n = rem
	}
	b := p.buf[:n]
	if err := readAtFull(p.src, b, p.base+p.read); err != nil {
		return fmt.Errorf("trace: reading blob: %w", err)
	}
	p.read += n
	p.crc = crc32.Update(p.crc, crc32.IEEETable, b)
	p.w = b
	return nil
}

func (p *payloadReader) byte() (byte, error) {
	if err := p.refill(); err != nil {
		return 0, err
	}
	b := p.w[0]
	p.w = p.w[1:]
	return b, nil
}

func (p *payloadReader) uvarint() (uint64, error) {
	var v uint64
	var shift uint
	for i := 0; ; i++ {
		b, err := p.byte()
		if err != nil {
			return 0, err
		}
		if i == binary.MaxVarintLen64 {
			return 0, fmt.Errorf("trace: truncated blob")
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, fmt.Errorf("trace: truncated blob")
			}
			return v | uint64(b)<<shift, nil
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
}

func (p *payloadReader) varint() (int64, error) {
	u, err := p.uvarint()
	if err != nil {
		return 0, err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

// skip consumes n payload bytes (CRC-ing them) without keeping them.
func (p *payloadReader) skip(n uint64) error {
	if n > uint64(p.size-p.consumed()) {
		return fmt.Errorf("trace: truncated blob")
	}
	for n > 0 {
		if err := p.refill(); err != nil {
			return err
		}
		take := uint64(len(p.w))
		if n < take {
			take = n
		}
		p.w = p.w[take:]
		n -= take
	}
	return nil
}

func (p *payloadReader) str() (string, error) {
	n, err := p.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(p.size-p.consumed()) {
		return "", fmt.Errorf("trace: truncated blob")
	}
	out := make([]byte, 0, n)
	for uint64(len(out)) < n {
		if err := p.refill(); err != nil {
			return "", err
		}
		take := n - uint64(len(out))
		if take > uint64(len(p.w)) {
			take = uint64(len(p.w))
		}
		out = append(out, p.w[:take]...)
		p.w = p.w[take:]
	}
	return string(out), nil
}

func (p *payloadReader) rows() ([]int, error) {
	n, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	var rows []int
	for i := uint64(0); i < n; i++ {
		v, err := p.varint()
		if err != nil {
			return nil, err
		}
		rows = append(rows, int(v))
	}
	return rows, nil
}

// streams parses one stream table, returning chunkless Stream stats and
// the per-processor chunk locations.
func (p *payloadReader) streams() ([]Stream, [][]chunkRef, error) {
	ns, err := p.uvarint()
	if err != nil {
		return nil, nil, err
	}
	var streams []Stream
	var chunkRefs [][]chunkRef
	for i := uint64(0); i < ns; i++ {
		var s Stream
		if s.Refs, err = p.uvarint(); err != nil {
			return nil, nil, err
		}
		if s.Events, err = p.uvarint(); err != nil {
			return nil, nil, err
		}
		nch, err := p.uvarint()
		if err != nil {
			return nil, nil, err
		}
		var refs []chunkRef
		for j := uint64(0); j < nch; j++ {
			cn, err := p.uvarint()
			if err != nil {
				return nil, nil, err
			}
			if cn > uint64(p.size-p.consumed()) {
				return nil, nil, fmt.Errorf("trace: truncated blob")
			}
			refs = append(refs, chunkRef{off: p.base + p.consumed(), n: int(cn)})
			if err := p.skip(cn); err != nil {
				return nil, nil, err
			}
		}
		streams = append(streams, s)
		chunkRefs = append(chunkRefs, refs)
	}
	return streams, chunkRefs, nil
}

// OpenBlob opens an encoded blob for streaming replay. It verifies the
// magic and CRC (reading the whole payload once, in sections) and
// decodes everything except the stream chunk bytes, which later cursors
// fetch on demand.
func OpenBlob(src io.ReaderAt, size int64) (*Reader, error) {
	if size < int64(blobHeader) {
		return nil, fmt.Errorf("trace: blob too short (%d bytes)", size)
	}
	hdr := make([]byte, blobHeader)
	if err := readAtFull(src, hdr, 0); err != nil {
		return nil, fmt.Errorf("trace: reading blob: %w", err)
	}
	if string(hdr[:len(blobMagic)]) != string(blobMagic[:]) {
		return nil, fmt.Errorf("trace: bad magic %q", hdr[:len(blobMagic)])
	}
	sum := binary.LittleEndian.Uint32(hdr[len(blobMagic):])

	p := &payloadReader{
		src:  src,
		base: int64(len(hdr)),
		size: size - int64(len(hdr)),
		buf:  make([]byte, chunkSize),
	}
	rd := &Reader{src: src}
	t := &rd.meta

	ver, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	if ver != blobVersion && ver != blobVersionSeg {
		return nil, fmt.Errorf("trace: unsupported blob version %d", ver)
	}
	if t.Query, err = p.str(); err != nil {
		return nil, err
	}
	bits, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	t.Scale = math.Float64frombits(bits)
	if t.Seed, err = p.uvarint(); err != nil {
		return nil, err
	}
	nodes, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	t.Nodes = int(nodes)
	if t.BusyPerAccess, err = p.varint(); err != nil {
		return nil, err
	}
	if t.SpinBackoff, err = p.varint(); err != nil {
		return nil, err
	}
	if t.LockCap, err = p.uvarint(); err != nil {
		return nil, err
	}

	ln, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	t.Layout.Nodes = int(ln)
	nr, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nr; i++ {
		var lr simm.LayoutRegion
		if lr.Name, err = p.str(); err != nil {
			return nil, err
		}
		if lr.Size, err = p.uvarint(); err != nil {
			return nil, err
		}
		cat, err := p.byte()
		if err != nil {
			return nil, err
		}
		lr.Cat = simm.Category(cat)
		node, err := p.varint()
		if err != nil {
			return nil, err
		}
		lr.Node = int(node)
		t.Layout.Regions = append(t.Layout.Regions, lr)
	}
	nc, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nc; i++ {
		pages, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		cat, err := p.byte()
		if err != nil {
			return nil, err
		}
		t.Layout.Cats = append(t.Layout.Cats, simm.CatRun{Pages: uint32(pages), Cat: simm.Category(cat)})
	}

	if ver == blobVersionSeg {
		nseg, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		for si := uint64(0); si < nseg; si++ {
			var seg Segment
			flush, err := p.byte()
			if err != nil {
				return nil, err
			}
			seg.Flush = flush != 0
			nq, err := p.uvarint()
			if err != nil {
				return nil, err
			}
			for i := uint64(0); i < nq; i++ {
				q, err := p.str()
				if err != nil {
					return nil, err
				}
				seg.Queries = append(seg.Queries, q)
			}
			if seg.Rows, err = p.rows(); err != nil {
				return nil, err
			}
			var segRefs [][]chunkRef
			if seg.Streams, segRefs, err = p.streams(); err != nil {
				return nil, err
			}
			t.Segments = append(t.Segments, seg)
			rd.chunks = append(rd.chunks, segRefs)
		}
	} else {
		if t.Rows, err = p.rows(); err != nil {
			return nil, err
		}
		var refs [][]chunkRef
		if t.Streams, refs, err = p.streams(); err != nil {
			return nil, err
		}
		rd.chunks = append(rd.chunks, refs)
	}
	if rem := p.size - p.consumed(); rem != 0 {
		return nil, fmt.Errorf("trace: %d trailing bytes after blob", rem)
	}
	if p.crc != sum {
		return nil, fmt.Errorf("trace: checksum mismatch (corrupted blob)")
	}
	return rd, nil
}
