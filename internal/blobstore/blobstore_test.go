package blobstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func newLocalDir(t *testing.T, ns, ext string) *LocalDir {
	t.Helper()
	l := NewLocalDir()
	if err := l.Mount(ns, t.TempDir(), ext); err != nil {
		t.Fatal(err)
	}
	return l
}

// TestStoreBasics drives the Get/Put miss-then-hit contract over the
// local directory store.
func TestStoreBasics(t *testing.T) {
	t.Run("localdir", func(t *testing.T) {
		l := newLocalDir(t, NSTrace, ".trace")
		key := "s1-abc123"
		if _, err := l.Get(NSTrace, key); !errors.Is(err, ErrNotExist) {
			t.Fatalf("Get before Put: err = %v, want ErrNotExist", err)
		}
		if _, err := l.GetReader(NSTrace, key); !errors.Is(err, ErrNotExist) {
			t.Fatalf("GetReader before Put: err = %v, want ErrNotExist", err)
		}
		blob := []byte("payload-bytes")
		if err := l.Put(NSTrace, key, blob); err != nil {
			t.Fatal(err)
		}
		got, err := l.Get(NSTrace, key)
		if err != nil || string(got) != string(blob) {
			t.Fatalf("Get = %q, %v", got, err)
		}
		rd, err := l.GetReader(NSTrace, key)
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		if rd.Size() != int64(len(blob)) {
			t.Fatalf("GetReader size = %d, want %d", rd.Size(), len(blob))
		}
	})
}

// TestKeyValidation pins the traversal defence: keys that could
// escape the mount directory or confuse an HTTP route are rejected by
// every write path.
func TestKeyValidation(t *testing.T) {
	l := newLocalDir(t, NSResult, ".gob")
	for _, key := range []string{"", "..", ".hidden", "a/b", "a\\b", "k\x00ey", strings.Repeat("x", 129)} {
		if err := l.Put(NSResult, key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted a bad key", key)
		}
		if _, err := l.Get(NSResult, key); err == nil {
			t.Errorf("Get(%q) accepted a bad key", key)
		}
	}
	if err := CheckKey("s1-0f3a.trace_B-2"); err != nil {
		t.Errorf("valid key rejected: %v", err)
	}
}

// TestLocalDirLayoutCompat pins the on-disk layout to the runner's
// historical one: a result blob under key K is the file K.gob, so
// cache directories written before the store existed stay readable.
func TestLocalDirLayoutCompat(t *testing.T) {
	dir := t.TempDir()
	l := NewLocalDir()
	if err := l.Mount(NSResult, dir, ".gob"); err != nil {
		t.Fatal(err)
	}
	if err := l.Put(NSResult, "s1-feed", []byte("r")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "s1-feed.gob")); err != nil {
		t.Fatalf("blob not at the legacy path: %v", err)
	}
	// And the other direction: a pre-store file is a visible blob.
	if err := os.WriteFile(filepath.Join(dir, "s1-old.gob"), []byte("legacy"), 0o644); err != nil {
		t.Fatal(err)
	}
	if b, err := l.Get(NSResult, "s1-old"); err != nil || string(b) != "legacy" {
		t.Fatalf("legacy file not readable: %q, %v", b, err)
	}
}

// TestConcurrentPutSameKey is the idempotence contract: many writers
// racing one key all succeed, and the surviving value is complete —
// one winner, never a torn mix.
func TestConcurrentPutSameKey(t *testing.T) {
	t.Run("localdir", func(t *testing.T) {
		l := newLocalDir(t, NSTrace, ".trace")
		const writers = 16
		payload := func(i int) []byte {
			return []byte(fmt.Sprintf("writer-%02d-%s", i, strings.Repeat("x", 4096)))
		}
		var wg sync.WaitGroup
		errs := make([]error, writers)
		for i := 0; i < writers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = l.Put(NSTrace, "s1-contended", payload(i))
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("writer %d: %v", i, err)
			}
		}
		got, err := l.Get(NSTrace, "s1-contended")
		if err != nil {
			t.Fatal(err)
		}
		winner := false
		for i := 0; i < writers; i++ {
			if string(got) == string(payload(i)) {
				winner = true
				break
			}
		}
		if !winner {
			t.Fatalf("stored value is not any writer's payload (len %d)", len(got))
		}
	})
}
