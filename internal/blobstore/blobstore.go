// Package blobstore is the content-addressed blob namespace behind the
// runner's persistent tiers: immutable blobs kept in local directories
// (LocalDir) in the runner's on-disk cache and trace layout.
//
// Keys are the runner's content-addressed job keys ("s1-<sha256>", see
// internal/runner.Job.Key), which makes every entry location
// independent: a result or trace blob computed by one process is valid
// in every later process that derives the same key, so a directory
// written by one run serves the next. Namespaces separate the blob
// kinds (gob-encoded results, CRC-framed trace blobs, the daemon's
// accepted specs); a key is unique within its namespace.
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

// The blob namespaces: the runner's two cache tiers and dssmemd's
// accepted specs.
const (
	// NSResult holds gob-encoded job results (the disk tier of the
	// runner's result cache).
	NSResult = "result"
	// NSTrace holds CRC-framed reference-trace blobs (the runner's
	// trace store).
	NSTrace = "trace"
	// NSSpec holds the specs dssmemd accepted as jobs, keyed by job id
	// (internal/cluster).
	NSSpec = "spec"
)

// ErrNotExist is the miss sentinel: Get and GetReader return it
// (possibly wrapped) when the namespace holds no blob under the key.
var ErrNotExist = errors.New("blobstore: blob does not exist")

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
