// Package blobstore is the content-addressed blob namespace behind the
// runner's persistent tiers: one Store interface over immutable blobs,
// with a local-directory backend that keeps the runner's on-disk cache
// and trace layout.
//
// Keys are the runner's content-addressed job keys ("s1-<sha256>", see
// internal/runner.Job.Key), which makes every entry location
// independent: a result or trace blob computed by one process is valid
// in every later process that derives the same key, so a directory
// written by one run serves the next. Namespaces separate the two blob
// kinds that exist today (gob-encoded results, CRC-framed trace
// blobs); a key is unique within its namespace.
//
// Integrity is the payload's own concern: trace blobs carry a magic
// and checksum (internal/trace), gob results fail to decode when
// damaged. The store returns whatever bytes it finds, and the caller's
// decode step turns damage into a miss that falls back to computing.
package blobstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
)

// The blob namespaces used by the runner's cache tiers.
const (
	// NSResult holds gob-encoded job results (the disk tier of the
	// runner's result cache).
	NSResult = "result"
	// NSTrace holds CRC-framed reference-trace blobs (the runner's
	// trace store).
	NSTrace = "trace"
)

// ErrNotExist is the miss sentinel: Get and Stat return it (possibly
// wrapped) when the namespace holds no blob under the key.
var ErrNotExist = errors.New("blobstore: blob does not exist")

// Info describes one stored blob.
type Info struct {
	Key  string `json:"key"`
	Size int64  `json:"size"`
}

// Store is a content-addressed blob store. Values under a key are
// immutable — writers storing different bytes under one key is a
// caller bug — so Put of an existing key is idempotent and concurrent
// Puts of the same key may race freely: any winner is correct.
//
// Get, GetReader and Stat report misses as ErrNotExist (test with
// errors.Is); any other error is a backend failure callers should treat
// as a miss when the store is an optimization tier.
//
// GetReader opens a blob for random access, so a chunk-granular
// consumer (the trace streamer) reads 64KB sections on demand instead
// of materializing the whole blob.
//
// List returns up to limit blobs with keys strictly greater than
// after, in ascending key order — the cursor protocol: pass the last
// key of one page as the next call's after. limit <= 0 means no limit.
type Store interface {
	Get(ns, key string) ([]byte, error)
	GetReader(ns, key string) (Reader, error)
	Put(ns, key string, b []byte) error
	Stat(ns, key string) (Info, error)
	List(ns, after string, limit int) ([]Info, error)
}

// Reader is random access over one blob. Implementations must allow
// concurrent ReadAt calls (os.File and bytes.Reader both do).
type Reader interface {
	io.ReaderAt
	io.Closer
	Size() int64
}

// NewBytesReader adapts an in-memory blob to the Reader interface.
func NewBytesReader(b []byte) Reader { return bytesReader{bytes.NewReader(b)} }

type bytesReader struct{ *bytes.Reader }

func (bytesReader) Close() error { return nil }

// CheckKey validates a key for use as a file name and URL path
// segment: ASCII letters, digits, '.', '_', '-', not starting with a
// dot (no "..", no hidden files), at most 128 bytes. The runner's
// "s<version>-<hex>" keys pass; anything that could traverse paths or
// confuse an HTTP route does not.
func CheckKey(key string) error {
	if key == "" || len(key) > 128 {
		return fmt.Errorf("blobstore: bad key %q: want 1..128 bytes", key)
	}
	if key[0] == '.' {
		return fmt.Errorf("blobstore: bad key %q: leading dot", key)
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("blobstore: bad key %q: byte %q", key, c)
		}
	}
	return nil
}

// CheckNS validates a namespace name: 1..32 lowercase letters.
func CheckNS(ns string) error {
	if ns == "" || len(ns) > 32 {
		return fmt.Errorf("blobstore: bad namespace %q", ns)
	}
	for i := 0; i < len(ns); i++ {
		if c := ns[i]; c < 'a' || c > 'z' {
			return fmt.Errorf("blobstore: bad namespace %q", ns)
		}
	}
	return nil
}
