package runner

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"sync"

	"repro/internal/blobstore"
)

// ValidateCacheDir reports whether dir can back the disk cache tier: it
// must be creatable and writable. Callers decide the failure policy —
// cmd/dssmem refuses to start (a requested cache that silently does
// nothing wastes whole sweeps), while dssmemd logs and degrades to the
// memory tier rather than failing requests.
func ValidateCacheDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cache dir %s: %w", dir, err)
	}
	f, err := os.CreateTemp(dir, "probe-*")
	if err != nil {
		return fmt.Errorf("cache dir %s not writable: %w", dir, err)
	}
	name := f.Name()
	f.Close()
	os.Remove(name)
	return nil
}

// resultCache is the content-addressed result store: an always-on
// in-memory map, optionally backed by a blob store (NSResult namespace,
// gob-encoded entries) so cached results survive process restarts.
// Values stored under a key are treated as immutable — a hit returns
// the stored value itself, shared by every requester — and concrete
// result types must be registered with encoding/gob for
// the blob tier to accept them (the experiments package registers its
// result types; unregistered values simply stay memory-only).
type resultCache struct {
	mu    sync.RWMutex
	mem   map[string]interface{}
	store *blobstore.LocalDir // nil = memory-only
	met   cacheMetrics
}

// diskEntry wraps a cached value so gob can encode the interface. The
// name (and wire shape) predate the blob store: entries written by the
// old directory tier decode unchanged.
type diskEntry struct {
	V interface{}
}

func newResultCache(store *blobstore.LocalDir, met cacheMetrics) *resultCache {
	return &resultCache{mem: make(map[string]interface{}), store: store, met: met}
}

// get returns the cached value for key, checking memory first and then
// the blob tier; blob hits are promoted to memory. Each tier consulted
// counts one lookup outcome, so the hit counters attribute where an
// answer came from the same way the simulator attributes a miss to a
// cache level. Undecodable blobs (damage, unregistered types) are
// misses: the tier is an optimization, never an authority.
func (c *resultCache) get(key string) (interface{}, bool) {
	c.mu.RLock()
	v, ok := c.mem[key]
	c.mu.RUnlock()
	if ok {
		c.met.hitMem.Inc()
		return v, true
	}
	c.met.missMem.Inc()
	if c.store == nil {
		return nil, false
	}
	b, err := c.store.Get(blobstore.NSResult, key)
	if err != nil {
		c.met.missDisk.Inc()
		return nil, false
	}
	var e diskEntry
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&e); err != nil {
		c.met.missDisk.Inc()
		return nil, false
	}
	c.met.hitDisk.Inc()
	c.mu.Lock()
	c.mem[key] = e.V
	c.mu.Unlock()
	return e.V, true
}

// put stores a value in memory and, when configured, in the blob tier.
// Blob failures (unregistered gob types, full disk, unreachable store)
// are silently tolerated: the memory tier alone preserves correctness.
func (c *resultCache) put(key string, v interface{}) {
	c.mu.Lock()
	c.mem[key] = v
	c.mu.Unlock()
	if c.store == nil {
		return
	}
	var buf bytes.Buffer
	if gob.NewEncoder(&buf).Encode(&diskEntry{V: v}) != nil {
		return
	}
	c.store.Put(blobstore.NSResult, key, buf.Bytes())
}

// size returns the number of in-memory entries.
func (c *resultCache) size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.mem)
}
