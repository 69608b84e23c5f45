package runner

import (
	"sync/atomic"

	"repro/internal/blobstore"
)

// traceStore is the trace-blob cache tier: content-addressed
// <job-key> blobs in the store's NSTrace namespace (the legacy
// directory layout files them as <key>.trace) holding captured
// reference traces. It sits below the result cache — a capture job
// whose result is gone but whose blob survives regenerates its report
// by replaying the blob instead of re-executing — and unlike the result
// cache it stores opaque bytes, so nothing needs gob registration and a
// blob written by one build (or one process) is readable by
// another. Integrity is the blob's own concern (magic + checksum, see
// internal/trace): the store returns whatever bytes it finds, and the
// decoder turns damage into a miss. With no store configured every
// lookup misses and every put is dropped, uncounted.
type traceStore struct {
	store *blobstore.LocalDir // nil = disabled
	met   traceMetrics
	bytes atomic.Int64 // bytes written by this process
}

func newTraceStore(store *blobstore.LocalDir, met traceMetrics) *traceStore {
	return &traceStore{store: store, met: met}
}

// getReader opens the stored blob for chunk-granular reads. Unreadable
// or absent blobs are misses. An openable blob counts as a hit even if
// its content later fails the decoder's checksum: the tier served
// bytes, and the decode turns damage into a fallback.
func (s *traceStore) getReader(key string) (blobstore.Reader, bool) {
	if s.store == nil || key == "" {
		return nil, false
	}
	r, err := s.store.GetReader(blobstore.NSTrace, key)
	if err != nil {
		s.met.misses.Inc()
		return nil, false
	}
	s.met.hits.Inc()
	return r, true
}

// put stores a blob under key and reports whether it landed. The
// backends write atomically, so a concurrent reader never sees a
// partial blob. Failures are silently tolerated: the store is an
// optimization tier, never correctness — but the caller learns whether
// the blob is retrievable (and can drop its own copy when it is).
func (s *traceStore) put(key string, b []byte) bool {
	if s.store == nil || key == "" {
		return false
	}
	if s.store.Put(blobstore.NSTrace, key, b) != nil {
		return false
	}
	s.met.writes.Inc()
	s.bytes.Add(int64(len(b)))
	return true
}
