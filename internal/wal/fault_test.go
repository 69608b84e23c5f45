package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// faultFS is MemFS plus the faults its write hook cannot reach: a
// failing Create and a failing Sync, each chosen per file name.
type faultFS struct {
	*MemFS
	createErr func(name string) error // nil = every Create succeeds
	syncErr   func(name string) error // nil = every Sync succeeds
}

type faultFile struct {
	File
	fs   *faultFS
	name string
}

func newFaultFS() *faultFS { return &faultFS{MemFS: NewMemFS()} }

func (f *faultFS) Create(name string) (File, error) {
	if f.createErr != nil {
		if err := f.createErr(name); err != nil {
			return nil, err
		}
	}
	h, err := f.MemFS.Create(name)
	if err != nil {
		return nil, err
	}
	return faultFile{File: h, fs: f, name: name}, nil
}

func (f faultFile) Sync() error {
	if f.fs.syncErr != nil {
		if err := f.fs.syncErr(f.name); err != nil {
			return err
		}
	}
	return f.File.Sync()
}

// failOn returns a hook failing with err for names containing substr.
func failOn(substr string, err error) func(string) error {
	return func(name string) error {
		if strings.Contains(name, substr) {
			return err
		}
		return nil
	}
}

var errDisk = errors.New("injected disk fault")

// TestOpenSegmentFaults: a fresh log whose first segment cannot be
// created, headed, or synced refuses to open, naming the fault.
func TestOpenSegmentFaults(t *testing.T) {
	for name, arm := range map[string]func(*faultFS){
		"create": func(fs *faultFS) { fs.createErr = failOn(".seg", errDisk) },
		"header-write": func(fs *faultFS) {
			fs.BeforeWrite = func(string, []byte) (int, error) { return 0, errDisk }
		},
		"header-sync": func(fs *faultFS) { fs.syncErr = failOn(".seg", errDisk) },
	} {
		fs := newFaultFS()
		arm(fs)
		if _, err := Open(Options{Dir: "w", FS: fs}, nil); !errors.Is(err, errDisk) {
			t.Errorf("%s fault: open err = %v, want the injected fault", name, err)
		}
	}
}

// TestSyncFault: a failed fsync fails its append and poisons the log —
// every later append and snapshot returns the same error — while the
// records synced before it still recover.
func TestSyncFault(t *testing.T) {
	for _, window := range []time.Duration{0, time.Millisecond} {
		fs := newFaultFS()
		l, err := Open(Options{Dir: "w", FS: fs, SyncWindow: window}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := l.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		fs.syncErr = failOn(".seg", errDisk)
		if err := l.Append([]byte("unsynced")); !errors.Is(err, errDisk) {
			t.Fatalf("window %v: append over a failing sync = %v", window, err)
		}
		fs.syncErr = nil
		if err := l.Append([]byte("after poison")); !errors.Is(err, errDisk) {
			t.Fatalf("window %v: poisoned log append = %v, want the sticky fault", window, err)
		}
		if err := l.Snapshot([]byte("state")); !errors.Is(err, errDisk) {
			t.Fatalf("window %v: poisoned log snapshot = %v, want the sticky fault", window, err)
		}
		if got := l.Appends(); got != 4 {
			t.Fatalf("window %v: Appends = %d, want 4 (the failed one was written)", window, got)
		}
		l.Kill()
		var got [][]byte
		l2, err := Open(Options{Dir: "w", FS: fs.Crash()}, collect(&got))
		if err != nil {
			t.Fatal(err)
		}
		l2.Close()
		if len(got) != 3 {
			t.Fatalf("window %v: recovered %d records, want the 3 synced", window, len(got))
		}
	}
}

// TestRotationFaults: when sealing the full segment or creating the
// next one fails, the append (or snapshot) that needed the rotation
// fails, the log is poisoned, and every record before it recovers.
func TestRotationFaults(t *testing.T) {
	cases := map[string]func(*faultFS){
		"seal-sync":   func(fs *faultFS) { fs.syncErr = failOn("wal-00000001", errDisk) },
		"next-create": func(fs *faultFS) { fs.createErr = failOn("wal-00000002", errDisk) },
		"next-sync":   func(fs *faultFS) { fs.syncErr = failOn("wal-00000002", errDisk) },
	}
	for name, arm := range cases {
		for _, snapshot := range []bool{false, true} {
			fs := newFaultFS()
			l, err := Open(Options{Dir: "w", FS: fs, SegmentBytes: BlockSize}, nil)
			if err != nil {
				t.Fatal(err)
			}
			rec := make([]byte, BlockSize/3)
			for i := 0; i < 2; i++ {
				if err := l.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			arm(fs)
			if snapshot {
				err = l.Snapshot([]byte("state"))
			} else {
				err = l.Append(rec) // does not fit: rotates
			}
			if !errors.Is(err, errDisk) {
				t.Fatalf("%s (snapshot %v): rotation err = %v, want the injected fault", name, snapshot, err)
			}
			if err := l.Append([]byte("x")); !errors.Is(err, errDisk) {
				t.Fatalf("%s (snapshot %v): append after failed rotation = %v", name, snapshot, err)
			}
			l.Kill()
			fs.createErr, fs.syncErr = nil, nil
			var got [][]byte
			l2, err := Open(Options{Dir: "w", FS: fs.Crash()}, collect(&got))
			if err != nil {
				t.Fatalf("%s (snapshot %v): reopen: %v", name, snapshot, err)
			}
			l2.Close()
			if len(got) != 2 {
				t.Fatalf("%s (snapshot %v): recovered %d records, want 2", name, snapshot, len(got))
			}
		}
	}
}

// waitPending blocks until n appends wait on the group commit.
func waitPending(t *testing.T, l *Log, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		got := len(l.waiters)
		l.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d appends waiting on the group commit, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseAndKillSettleWaiters: appends waiting on a group commit are
// settled by Close (durable: its final fsync covers them) and by Kill
// (ErrKilled: nothing was synced). Both are idempotent, Close after
// Kill included, and a closed log refuses appends with ErrClosed.
func TestCloseAndKillSettleWaiters(t *testing.T) {
	for _, kill := range []bool{false, true} {
		fs := NewMemFS()
		l, err := Open(Options{Dir: "w", FS: fs, SyncWindow: time.Hour}, nil)
		if err != nil {
			t.Fatal(err)
		}
		errCh := make(chan error, 1)
		go func() { errCh <- l.Append([]byte("waiting")) }()
		waitPending(t, l, 1)
		want, wantLate := error(nil), ErrClosed
		if kill {
			want, wantLate = ErrKilled, ErrKilled
			l.Kill()
			l.Kill()
		}
		if err := l.Close(); err != nil {
			t.Fatalf("kill %v: close = %v", kill, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("kill %v: second close = %v", kill, err)
		}
		if err := <-errCh; !errors.Is(err, want) {
			t.Fatalf("kill %v: waiting append = %v, want %v", kill, err, want)
		}
		if err := l.Append([]byte("late")); !errors.Is(err, wantLate) {
			t.Fatalf("kill %v: append after close = %v, want %v", kill, err, wantLate)
		}
		if got := l.Appends(); got != 1 {
			t.Fatalf("kill %v: Appends = %d, want 1", kill, got)
		}
		var got [][]byte
		l2, err := Open(Options{Dir: "w", FS: fs.Crash()}, collect(&got))
		if err != nil {
			t.Fatal(err)
		}
		l2.Close()
		if durable := !kill; (len(got) == 1) != durable {
			t.Fatalf("kill %v: recovered %d records", kill, len(got))
		}
	}
}

// TestSnapshotOnDisk: compaction over the OS filesystem removes the
// superseded segment files.
func TestSnapshotOnDisk(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot([]byte("state")); err != nil {
		t.Fatal(err)
	}
	if names, _ := (DirFS{}).List(dir); len(names) != 1 || names[0] != filepath.Base(l.segPath(2)) {
		t.Fatalf("segments after compaction = %v, want just %s", names, filepath.Base(l.segPath(2)))
	}
	if got := l.Appends(); got != 2 {
		t.Fatalf("Appends = %d, want 2 (snapshots count)", got)
	}
}
