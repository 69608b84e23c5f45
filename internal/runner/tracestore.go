package runner

import (
	"sync"

	"repro/internal/blobstore"
)

// traceStore is the trace-blob cache tier: content-addressed
// <job-key> blobs in the store's NSTrace namespace (the legacy
// directory layout files them as <key>.trace) holding captured
// reference traces. It sits below the result cache — a capture job
// whose result is gone but whose blob survives regenerates its report
// by replaying the blob instead of re-executing — and unlike the result
// cache it stores opaque bytes, so nothing needs gob registration and a
// blob written by one build (or one peer daemon) is readable by
// another. Integrity is the blob's own concern (magic + checksum, see
// internal/trace): the store returns whatever bytes it finds, and the
// decoder turns damage into a miss. With no store configured every
// lookup misses and every put is dropped, uncounted.
type traceStore struct {
	store blobstore.Store // nil = disabled
	met   traceMetrics

	mu sync.Mutex
	st TraceStats
}

// TraceStats is the store's accounting snapshot.
type TraceStats struct {
	Hits   int64
	Misses int64
	Writes int64
	Bytes  int64 // bytes written by this process
}

func newTraceStore(store blobstore.Store, met traceMetrics) *traceStore {
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
	r, err := blobstore.OpenReader(s.store, blobstore.NSTrace, key)
	if err != nil {
		s.met.misses.Inc()
		s.mu.Lock()
		s.st.Misses++
		s.mu.Unlock()
		return nil, false
	}
	s.met.hits.Inc()
	s.mu.Lock()
	s.st.Hits++
	s.mu.Unlock()
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
	s.mu.Lock()
	s.st.Writes++
	s.st.Bytes += int64(len(b))
	s.mu.Unlock()
	return true
}

func (s *traceStore) stats() TraceStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}
