package trace

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
)

// Blob format: the self-contained on-disk / in-cache encoding of a
// QueryTrace. An 8-byte magic and a CRC-32 over the payload make
// corruption and truncation first-class decode errors — a damaged trace
// file must read as a cache miss, never as a silently wrong replay.
//
//	magic   "DSSTRC01"
//	crc32   IEEE, little-endian, over the payload
//	payload version, header fields, layout, rows, streams (varints)
//
// Version 1 is the single-query shape: one rows list, one stream per
// processor. Version 2 is the stream-workload shape: the rows+streams
// tail is replaced by a phase-segment table (per segment: flush flag,
// per-processor query labels, rows, streams), so one capture of a
// multi-phase stream yields independently replayable segments. A trace
// without segments always encodes as version 1, bit-identical to the
// pre-stream format.
const (
	blobVersion    = 1
	blobVersionSeg = 2
)

var blobMagic = [8]byte{'D', 'S', 'S', 'T', 'R', 'C', '0', '1'}

// blobHeader is the framing in front of the payload: magic + CRC-32.
const blobHeader = len(blobMagic) + 4

type blobWriter struct{ b []byte }

func (w *blobWriter) uvarint(v uint64) {
	w.b = binary.AppendUvarint(w.b, v)
}

func (w *blobWriter) varint(v int64) {
	w.b = binary.AppendVarint(w.b, v)
}

func (w *blobWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}

func (w *blobWriter) bytes(p []byte) {
	w.uvarint(uint64(len(p)))
	w.b = append(w.b, p...)
}

func (w *blobWriter) streams(streams []Stream) {
	w.uvarint(uint64(len(streams)))
	for i := range streams {
		s := &streams[i]
		w.uvarint(s.Refs)
		w.uvarint(s.Events)
		w.uvarint(uint64(len(s.Chunks)))
		for _, c := range s.Chunks {
			w.bytes(c)
		}
	}
}

// marshalBound is an upper bound on the encoded blob size — every
// varint at its worst case — so Marshal's one buffer never regrows.
func (t *QueryTrace) marshalBound() int {
	const v = binary.MaxVarintLen64
	n := blobHeader + 16*v + len(t.Query) + v*len(t.Rows)
	for _, r := range t.Layout.Regions {
		n += len(r.Name) + 3*v + 1
	}
	n += len(t.Layout.Cats) * (v + 1)
	streams := func(ss []Stream) {
		for i := range ss {
			n += 3*v + ss[i].Bytes() + v*len(ss[i].Chunks)
		}
	}
	streams(t.Streams)
	for i := range t.Segments {
		seg := &t.Segments[i]
		n += 1 + 4*v + v*len(seg.Rows)
		for _, q := range seg.Queries {
			n += v + len(q)
		}
		streams(seg.Streams)
	}
	return n
}

// Marshal encodes the trace as a blob, in one allocation: the payload is
// written behind a reserved header, and the magic and the payload's CRC
// are patched into the reservation once the payload is complete.
func (t *QueryTrace) Marshal() []byte {
	var w blobWriter
	w.b = make([]byte, blobHeader, t.marshalBound())
	ver := uint64(blobVersion)
	if len(t.Segments) > 0 {
		ver = blobVersionSeg
	}
	w.uvarint(ver)
	w.str(t.Query)
	w.uvarint(math.Float64bits(t.Scale))
	w.uvarint(t.Seed)
	w.uvarint(uint64(t.Nodes))
	w.varint(t.BusyPerAccess)
	w.varint(t.SpinBackoff)
	w.uvarint(t.LockCap)

	w.uvarint(uint64(t.Layout.Nodes))
	w.uvarint(uint64(len(t.Layout.Regions)))
	for _, r := range t.Layout.Regions {
		w.str(r.Name)
		w.uvarint(r.Size)
		w.b = append(w.b, byte(r.Cat))
		w.varint(int64(r.Node))
	}
	w.uvarint(uint64(len(t.Layout.Cats)))
	for _, c := range t.Layout.Cats {
		w.uvarint(uint64(c.Pages))
		w.b = append(w.b, byte(c.Cat))
	}

	if ver == blobVersionSeg {
		w.uvarint(uint64(len(t.Segments)))
		for si := range t.Segments {
			seg := &t.Segments[si]
			var flush byte
			if seg.Flush {
				flush = 1
			}
			w.b = append(w.b, flush)
			w.uvarint(uint64(len(seg.Queries)))
			for _, q := range seg.Queries {
				w.str(q)
			}
			w.uvarint(uint64(len(seg.Rows)))
			for _, n := range seg.Rows {
				w.varint(int64(n))
			}
			w.streams(seg.Streams)
		}
	} else {
		w.uvarint(uint64(len(t.Rows)))
		for _, n := range t.Rows {
			w.varint(int64(n))
		}
		w.streams(t.Streams)
	}

	copy(w.b, blobMagic[:])
	binary.LittleEndian.PutUint32(w.b[len(blobMagic):], crc32.ChecksumIEEE(w.b[blobHeader:]))
	return w.b
}

// Unmarshal decodes a blob held in memory. OpenBlob is the one parser of
// the framing (magic, checksum, both versions); Unmarshal materialises
// its chunk table by aliasing each chunk as a sub-slice of b, so the
// decoded trace is zero-copy and callers must not mutate b afterwards.
func Unmarshal(b []byte) (*QueryTrace, error) {
	rd, err := OpenBlob(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		return nil, err
	}
	t := rd.meta
	for k, segRefs := range rd.chunks {
		streams := t.Streams
		if len(t.Segments) > 0 {
			streams = t.Segments[k].Streams
		}
		for i, refs := range segRefs {
			for _, c := range refs {
				end := c.off + int64(c.n)
				streams[i].Chunks = append(streams[i].Chunks, b[c.off:end:end])
			}
		}
	}
	return &t, nil
}
