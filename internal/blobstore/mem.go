package blobstore

import (
	"fmt"
	"sort"
	"sync"
)

// Mem is an in-memory Store: the backend for daemons running without
// cache directories and for tests. All namespaces exist implicitly.
type Mem struct {
	mu sync.RWMutex
	m  map[string]map[string][]byte // ns -> key -> blob
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{m: make(map[string]map[string][]byte)}
}

// Get returns the blob's bytes, ErrNotExist when absent.
func (s *Mem) Get(ns, key string) ([]byte, error) {
	s.mu.RLock()
	b, ok := s.m[ns][key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%s/%s: %w", ns, key, ErrNotExist)
	}
	return b, nil
}

// GetReader returns random access over the stored blob without
// copying it — safe because Put stores a private copy and blobs are
// immutable. ErrNotExist when absent.
func (s *Mem) GetReader(ns, key string) (Reader, error) {
	s.mu.RLock()
	b, ok := s.m[ns][key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%s/%s: %w", ns, key, ErrNotExist)
	}
	return NewBytesReader(b), nil
}

// Put stores a copy of the blob.
func (s *Mem) Put(ns, key string, b []byte) error {
	if err := CheckNS(ns); err != nil {
		return err
	}
	if err := CheckKey(key); err != nil {
		return err
	}
	cp := append([]byte(nil), b...)
	s.mu.Lock()
	if s.m[ns] == nil {
		s.m[ns] = make(map[string][]byte)
	}
	s.m[ns][key] = cp
	s.mu.Unlock()
	return nil
}

// Stat reports the blob's size, ErrNotExist when absent.
func (s *Mem) Stat(ns, key string) (Info, error) {
	s.mu.RLock()
	b, ok := s.m[ns][key]
	s.mu.RUnlock()
	if !ok {
		return Info{}, fmt.Errorf("%s/%s: %w", ns, key, ErrNotExist)
	}
	return Info{Key: key, Size: int64(len(b))}, nil
}

// List pages through the namespace in ascending key order.
func (s *Mem) List(ns, after string, limit int) ([]Info, error) {
	s.mu.RLock()
	var out []Info
	for k, b := range s.m[ns] {
		if k > after {
			out = append(out, Info{Key: k, Size: int64(len(b))})
		}
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}
