package blobstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// LocalDir serves namespaces from local directories, one mount per
// namespace, preserving the runner's historical on-disk layout: a
// blob is a single file named <key><ext> (results are <key>.gob,
// traces <key>.trace), so a cache directory written by an older
// daemon reads back unchanged through the store and vice versa.
//
// Values under a key are immutable — writers storing different bytes
// under one key is a caller bug. Writes are atomic (temp file + rename
// within the mount directory) and durable (file and directory synced),
// which also makes concurrent Puts of one key safe: every writer
// renames a complete file into place, one of them lands last, and any
// winner is correct.
//
// Get and GetReader report misses as ErrNotExist (test with
// errors.Is); any other error is a filesystem failure, which the
// runner's tiers treat as a miss.
type LocalDir struct {
	mu     sync.RWMutex
	mounts map[string]localMount
}

type localMount struct {
	dir string
	ext string // file extension including the dot; may be ""
}

// NewLocalDir returns a store with no mounts; operations on an
// unmounted namespace fail until Mount adds it.
func NewLocalDir() *LocalDir {
	return &LocalDir{mounts: make(map[string]localMount)}
}

// Mount serves namespace ns from dir, storing each blob as
// <dir>/<key><ext>. The directory is created if missing; an unusable
// directory is reported (callers decide whether to degrade).
func (l *LocalDir) Mount(ns, dir, ext string) error {
	if err := CheckNS(ns); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("blobstore: mount %s: %w", ns, err)
	}
	l.mu.Lock()
	l.mounts[ns] = localMount{dir: dir, ext: ext}
	l.mu.Unlock()
	return nil
}

func (l *LocalDir) mount(ns string) (localMount, error) {
	l.mu.RLock()
	m, ok := l.mounts[ns]
	l.mu.RUnlock()
	if !ok {
		return localMount{}, fmt.Errorf("blobstore: namespace %q not mounted", ns)
	}
	return m, nil
}

func (m localMount) path(key string) string {
	return filepath.Join(m.dir, key+m.ext)
}

// Get returns the blob's bytes, ErrNotExist when absent.
func (l *LocalDir) Get(ns, key string) ([]byte, error) {
	m, err := l.mount(ns)
	if err != nil {
		return nil, err
	}
	if err := CheckKey(key); err != nil {
		return nil, err
	}
	b, err := os.ReadFile(m.path(key))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%s/%s: %w", ns, key, ErrNotExist)
	}
	return b, err
}

// GetReader opens the blob's file for sectioned reads — the streaming
// fast path: a trace replay reads 64KB chunks on demand instead of the
// whole file. ErrNotExist when absent.
func (l *LocalDir) GetReader(ns, key string) (Reader, error) {
	m, err := l.mount(ns)
	if err != nil {
		return nil, err
	}
	if err := CheckKey(key); err != nil {
		return nil, err
	}
	f, err := os.Open(m.path(key))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%s/%s: %w", ns, key, ErrNotExist)
	}
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return fileReader{File: f, size: fi.Size()}, nil
}

// fileReader adapts an open blob file to the Reader interface.
type fileReader struct {
	*os.File
	size int64
}

func (f fileReader) Size() int64 { return f.size }

// Put stores the blob atomically and durably: the temp file is synced
// before the rename, and the directory after it, so a blob Put
// returned for survives a power loss, not only a process kill.
func (l *LocalDir) Put(ns, key string, b []byte) error {
	m, err := l.mount(ns)
	if err != nil {
		return err
	}
	if err := CheckKey(key); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(m.dir, "put-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	_, err = tmp.Write(b)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), m.path(key))
	}
	if err != nil {
		return err
	}
	dir, err := os.Open(m.dir)
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}
