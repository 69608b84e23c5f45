package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// FS is the log's filesystem seam. The OS implementation is the
// production path; MemFS implements the same contract in memory with
// explicit durability (only synced bytes survive Crash), which is how
// the tests prove that every prefix of the physical log recovers to a
// consistent state — fault injection (write errors, short writes,
// crash-after-N-appends) plugs in here, not into the log itself.
type FS interface {
	// Create opens name for appending, creating it empty when absent.
	// The returned file's write position is its current size.
	Create(name string) (File, error)
	// List returns the base names of the files under dir, sorted.
	// A missing dir is created empty.
	List(dir string) ([]string, error)
	// Remove deletes name.
	Remove(name string) error
}

// File is the subset of *os.File the log needs. Writes are positional
// but always at the current end — the log tracks its own offset, which
// keeps appends correct after a recovery Truncate discards a torn tail
// (an os.File append-mode offset would point past the new EOF and leave
// a hole of zeros, which the scanner would misread as block padding).
type File interface {
	io.WriterAt
	io.ReaderAt
	io.Closer
	Sync() error
	Truncate(size int64) error
	Size() (int64, error)
}

// DirFS is the production FS over a real directory tree.
type DirFS struct{}

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (DirFS) Create(name string) (File, error) {
	if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(name, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (DirFS) List(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (DirFS) Remove(name string) error { return os.Remove(name) }

// MemFS is an in-memory FS with explicit durability semantics: bytes
// written to a file are pending until Sync moves them to the durable
// image, and Crash clones only the durable image — exactly what a
// kernel page cache loses on power failure. BeforeWrite, when set,
// intercepts every write and may inject a short write or an error;
// the fault-injection tests drive it.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile

	// BeforeWrite, when non-nil, is consulted before each write with
	// the file name and payload; returning n < len(b) injects a short
	// write (only b[:n] lands), and a non-nil error fails the write
	// after b[:n] lands — a torn append. Faults apply to record writes
	// and segment headers alike.
	BeforeWrite func(name string, b []byte) (int, error)
}

type memFile struct {
	durable []byte
	pending []byte // appended but not yet synced
}

// NewMemFS returns an empty in-memory FS.
func NewMemFS() *MemFS { return &MemFS{files: make(map[string]*memFile)} }

// Crash returns a new FS holding only the durable image of every file
// — the disk state an abrupt process/machine death would leave behind.
// The receiver remains usable (the "still running" doomed instance).
func (m *MemFS) Crash() *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := NewMemFS()
	for name, f := range m.files {
		c.files[name] = &memFile{durable: append([]byte(nil), f.durable...)}
	}
	return c
}

// SyncedBytes returns the durable image of name (nil when absent) —
// the byte-prefix material the recovery tests slice up.
func (m *MemFS) SyncedBytes(name string) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil
	}
	return append([]byte(nil), f.durable...)
}

// WriteFile installs name with b as both durable and synced content —
// the seam the fuzzer uses to plant arbitrary segment images.
func (m *MemFS) WriteFile(name string, b []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = &memFile{durable: append([]byte(nil), b...)}
}

type memHandle struct {
	fs   *MemFS
	name string
}

func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.files[name] == nil {
		m.files[name] = &memFile{}
	}
	return &memHandle{fs: m, name: name}, nil
}

func (m *MemFS) List(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prefix := filepath.Clean(dir) + string(filepath.Separator)
	var names []string
	for name := range m.files {
		if filepath.Dir(name) == filepath.Clean(dir) {
			names = append(names, name[len(prefix):])
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.files[name] == nil {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

func (h *memHandle) file() (*memFile, error) {
	f, ok := h.fs.files[h.name]
	if !ok {
		return nil, &os.PathError{Op: "write", Path: h.name, Err: os.ErrNotExist}
	}
	return f, nil
}

func (h *memHandle) WriteAt(b []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f, err := h.file()
	if err != nil {
		return 0, err
	}
	if off != int64(len(f.durable)+len(f.pending)) {
		return 0, fmt.Errorf("wal: non-append write to %s at %d", h.name, off)
	}
	n, werr := len(b), error(nil)
	if h.fs.BeforeWrite != nil {
		n, werr = h.fs.BeforeWrite(h.name, b)
		if n > len(b) {
			n = len(b)
		}
	}
	f.pending = append(f.pending, b[:n]...)
	if werr != nil {
		return n, werr
	}
	if n < len(b) {
		return n, fmt.Errorf("wal: short write on %s (%d of %d bytes)", h.name, n, len(b))
	}
	return n, nil
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f, err := h.file()
	if err != nil {
		return 0, err
	}
	all := append(append([]byte(nil), f.durable...), f.pending...)
	if off >= int64(len(all)) {
		return 0, io.EOF
	}
	n := copy(p, all[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f, err := h.file()
	if err != nil {
		return err
	}
	f.durable = append(f.durable, f.pending...)
	f.pending = nil
	return nil
}

func (h *memHandle) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f, err := h.file()
	if err != nil {
		return err
	}
	all := append(append([]byte(nil), f.durable...), f.pending...)
	if size > int64(len(all)) {
		return fmt.Errorf("wal: truncate %s beyond size", h.name)
	}
	f.durable = all[:size]
	f.pending = nil
	return nil
}

func (h *memHandle) Size() (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f, err := h.file()
	if err != nil {
		return 0, err
	}
	return int64(len(f.durable) + len(f.pending)), nil
}

func (h *memHandle) Close() error { return nil }
