package wal

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

func metricValue(t *testing.T, reg *metrics.Registry, name string) float64 {
	t.Helper()
	for _, f := range reg.Snapshot() {
		if f.Name == name {
			var sum float64
			for _, s := range f.Samples {
				sum += s.Value
			}
			return sum
		}
	}
	return 0
}

// collect returns a replay callback appending into dst.
func collect(dst *[][]byte) func([]byte) error {
	return func(rec []byte) error {
		*dst = append(*dst, append([]byte(nil), rec...))
		return nil
	}
}

func testRecords(n int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		// Varied sizes: tiny, mid, and a couple spanning blocks.
		size := 1 + (i*37)%200
		if i%11 == 10 {
			size = BlockSize/2 + i
		}
		if i == n/2 {
			size = BlockSize + 1000 // larger than a block: must straddle
		}
		r := make([]byte, size)
		for j := range r {
			r[j] = byte(i + j)
		}
		recs[i] = r
	}
	return recs
}

// TestAppendReopenRoundTrip: records come back byte-identical, in
// order, across close/reopen — including records larger than a block.
func TestAppendReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.New()
	l, err := Open(Options{Dir: dir, Metrics: reg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(40)
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, reg, "dssmem_wal_appends_total"); got != float64(len(recs)) {
		t.Fatalf("appends_total = %v, want %d", got, len(recs))
	}

	var got [][]byte
	reg2 := metrics.New()
	l2, err := Open(Options{Dir: dir, Metrics: reg2}, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got) != len(recs) {
		t.Fatalf("recovered %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("record %d differs after reopen", i)
		}
	}
	if n := metricValue(t, reg2, "dssmem_wal_recovery_records"); n != float64(len(recs)) {
		t.Fatalf("recovery_records = %v, want %d", n, len(recs))
	}
	if n := metricValue(t, reg2, "dssmem_wal_recovery_truncated_bytes"); n != 0 {
		t.Fatalf("clean log reported %v truncated bytes", n)
	}
}

// TestRotation: a small segment limit rotates; every record still
// replays in order across many segment files.
func TestRotation(t *testing.T) {
	fs := NewMemFS()
	l, err := Open(Options{Dir: "w", FS: fs, SegmentBytes: BlockSize}, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(60)
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	names, _ := fs.List("w")
	if len(names) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %v", names)
	}
	var got [][]byte
	l2, err := Open(Options{Dir: "w", FS: fs}, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got) != len(recs) {
		t.Fatalf("recovered %d records across %d segments, want %d", len(got), len(names), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("record %d differs", i)
		}
	}
}

// TestEveryPrefixRecovers is the torn-tail contract: for EVERY byte
// prefix of the durable log image, recovery succeeds without panic and
// yields exactly some prefix of the appended records — never a wrong,
// reordered, or phantom record — and the truncated log accepts new
// appends that then recover too.
func TestEveryPrefixRecovers(t *testing.T) {
	fs := NewMemFS()
	l, err := Open(Options{Dir: "w", FS: fs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Small records keep the image short enough to walk every byte;
	// block-boundary prefixes are covered by TestBlockAlignment and the
	// fuzzer.
	recs := make([][]byte, 10)
	for i := range recs {
		recs[i] = bytes.Repeat([]byte{byte('a' + i)}, 1+i*17)
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	img := fs.SyncedBytes(filepath.Join("w", "wal-00000001.seg"))
	if len(img) == 0 {
		t.Fatal("no segment image")
	}

	for p := 0; p <= len(img); p++ {
		pfs := NewMemFS()
		pfs.WriteFile(filepath.Join("w", "wal-00000001.seg"), img[:p])
		var got [][]byte
		pl, err := Open(Options{Dir: "w", FS: pfs}, collect(&got))
		if err != nil {
			t.Fatalf("prefix %d/%d: open: %v", p, len(img), err)
		}
		for i := range got {
			if !bytes.Equal(got[i], recs[i]) {
				t.Fatalf("prefix %d: record %d not a faithful prefix of the appended records", p, i)
			}
		}
		// The truncated log must keep working: one more append, one
		// more reopen, one more record.
		extra := []byte("post-recovery append")
		if err := pl.Append(extra); err != nil {
			t.Fatalf("prefix %d: append after recovery: %v", p, err)
		}
		pl.Close()
		var again [][]byte
		pl2, err := Open(Options{Dir: "w", FS: pfs}, collect(&again))
		if err != nil {
			t.Fatalf("prefix %d: reopen: %v", p, err)
		}
		pl2.Close()
		if len(again) != len(got)+1 || !bytes.Equal(again[len(again)-1], extra) {
			t.Fatalf("prefix %d: after re-append recovered %d records, want %d", p, len(again), len(got)+1)
		}
	}
}

// TestGroupCommit: concurrent appends inside one sync window share an
// fsync, and every one of them is durable once Append returns.
func TestGroupCommit(t *testing.T) {
	fs := NewMemFS()
	reg := metrics.New()
	l, err := Open(Options{Dir: "w", FS: fs, SyncWindow: 100 * time.Millisecond, Metrics: reg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := l.Append([]byte(fmt.Sprintf("rec-%02d", i))); err != nil {
				t.Errorf("append %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	// Durable means: visible after a crash with no clean close.
	crashed := fs.Crash()
	l.Kill()
	var got [][]byte
	l2, err := Open(Options{Dir: "w", FS: crashed}, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if len(got) != n {
		t.Fatalf("crash after group commit lost records: recovered %d, want %d", len(got), n)
	}
	appends := metricValue(t, reg, "dssmem_wal_appends_total")
	fsyncs := metricValue(t, reg, "dssmem_wal_fsyncs_total")
	if fsyncs >= appends {
		t.Fatalf("group commit did not batch: %v fsyncs for %v appends", fsyncs, appends)
	}
}

// TestSnapshotCompaction: Snapshot rotates, persists the state record,
// and removes older segments; recovery replays just the snapshot.
func TestSnapshotCompaction(t *testing.T) {
	fs := NewMemFS()
	l, err := Open(Options{Dir: "w", FS: fs, SegmentBytes: BlockSize}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecords(40) {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	state := []byte("the whole state, rolled up")
	if err := l.Snapshot(state); err != nil {
		t.Fatal(err)
	}
	l.Close()

	names, _ := fs.List("w")
	if len(names) != 1 {
		t.Fatalf("compaction left %v, want exactly the snapshot segment", names)
	}
	var got [][]byte
	l2, err := Open(Options{Dir: "w", FS: fs}, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if len(got) != 1 || !bytes.Equal(got[0], state) {
		t.Fatalf("recovered %d records after compaction, want just the snapshot", len(got))
	}
}

// TestShortWriteFault: an injected short write fails the append,
// poisons the log, and the crash image recovers every record appended
// before the fault — the torn frame is truncated, not replayed.
func TestShortWriteFault(t *testing.T) {
	fs := NewMemFS()
	writes := 0
	fs.BeforeWrite = func(name string, b []byte) (int, error) {
		writes++
		if writes == 5 { // header + 3 records land; the 4th record tears
			return len(b) / 2, nil
		}
		return len(b), nil
	}
	l, err := Open(Options{Dir: "w", FS: fs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appended := 0
	var firstErr error
	for i := 0; i < 10; i++ {
		if err := l.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			firstErr = err
			break
		}
		appended++
	}
	if firstErr == nil {
		t.Fatal("short write did not surface")
	}
	if err := l.Append([]byte("after poison")); err == nil {
		t.Fatal("poisoned log accepted another append")
	}

	// Reopen over the live fs — the process-crash model, where the torn
	// half-frame is still on disk and recovery must truncate it.
	fs.BeforeWrite = nil
	var got [][]byte
	reg := metrics.New()
	l2, err := Open(Options{Dir: "w", FS: fs, Metrics: reg}, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if len(got) != appended {
		t.Fatalf("recovered %d records, want the %d appended before the fault", len(got), appended)
	}
	if n := metricValue(t, reg, "dssmem_wal_recovery_truncated_bytes"); n <= 0 {
		t.Fatalf("torn tail not counted: truncated_bytes = %v", n)
	}
}

// TestWriteErrorFault: an injected write error behaves like the short
// write — append fails, log poisons, prior records recover.
func TestWriteErrorFault(t *testing.T) {
	fs := NewMemFS()
	writes := 0
	boom := errors.New("disk on fire")
	fs.BeforeWrite = func(name string, b []byte) (int, error) {
		writes++
		if writes == 4 {
			return 0, boom
		}
		return len(b), nil
	}
	l, err := Open(Options{Dir: "w", FS: fs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appended := 0
	for i := 0; i < 10; i++ {
		if err := l.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			break
		}
		appended++
	}
	if appended == 10 {
		t.Fatal("write error never surfaced")
	}
	fs.BeforeWrite = nil
	var got [][]byte
	l2, err := Open(Options{Dir: "w", FS: fs.Crash()}, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if len(got) != appended {
		t.Fatalf("recovered %d, want %d", len(got), appended)
	}
}

// TestCrashAfterNAppends: a log killed after a chosen number of
// appends refuses the next one, and exactly the records durable at the
// kill recover.
func TestCrashAfterNAppends(t *testing.T) {
	for _, n := range []int{1, 3, 7} {
		fs := NewMemFS()
		l, err := Open(Options{Dir: "w", FS: fs}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := l.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
				t.Fatalf("crash point %d: append %d: %v", n, i, err)
			}
		}
		l.Kill()
		if err := l.Append([]byte("late")); !errors.Is(err, ErrKilled) {
			t.Fatalf("crash point %d: append after kill = %v, want ErrKilled", n, err)
		}
		var got [][]byte
		l2, err := Open(Options{Dir: "w", FS: fs.Crash()}, collect(&got))
		if err != nil {
			t.Fatalf("crash point %d: %v", n, err)
		}
		l2.Close()
		if len(got) != n {
			t.Fatalf("crash after %d appends recovered %d records", n, len(got))
		}
	}
}

// TestMidLogCorruptionFails: damage before the final segment is not a
// torn tail — it must refuse to open rather than silently drop state.
func TestMidLogCorruptionFails(t *testing.T) {
	fs := NewMemFS()
	l, err := Open(Options{Dir: "w", FS: fs, SegmentBytes: BlockSize}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecords(40) {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	names, _ := fs.List("w")
	if len(names) < 2 {
		t.Fatalf("need multiple segments, got %v", names)
	}
	first := filepath.Join("w", names[0])
	img := fs.SyncedBytes(first)
	img[len(img)/2] ^= 0xff
	fs.WriteFile(first, img)
	if _, err := Open(Options{Dir: "w", FS: fs}, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-log corruption opened with err=%v, want ErrCorrupt", err)
	}
}

// TestReplayCallbackError aborts the open.
func TestReplayCallbackError(t *testing.T) {
	fs := NewMemFS()
	l, _ := Open(Options{Dir: "w", FS: fs}, nil)
	l.Append([]byte("x"))
	l.Close()
	boom := errors.New("apply failed")
	if _, err := Open(Options{Dir: "w", FS: fs}, func([]byte) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("open swallowed the replay error: %v", err)
	}
}

// TestBlockAlignment: frames that fit a block never straddle one — the
// writer pads to the boundary, and the pad is recovered transparently.
func TestBlockAlignment(t *testing.T) {
	fs := NewMemFS()
	l, err := Open(Options{Dir: "w", FS: fs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Records sized so the second one cannot fit the first block.
	a := bytes.Repeat([]byte{'a'}, BlockSize*2/3)
	b := bytes.Repeat([]byte{'b'}, BlockSize/2)
	if err := l.Append(a); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(b); err != nil {
		t.Fatal(err)
	}
	l.Close()
	img := fs.SyncedBytes(filepath.Join("w", "wal-00000001.seg"))
	if len(img) <= BlockSize {
		t.Fatalf("second record was not pushed to the next block (image %d bytes)", len(img))
	}
	// The b-frame must start exactly at the block boundary.
	if img[BlockSize] == 0 {
		t.Fatal("no frame at the block boundary")
	}
	var got [][]byte
	l2, err := Open(Options{Dir: "w", FS: fs}, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if len(got) != 2 || !bytes.Equal(got[0], a) || !bytes.Equal(got[1], b) {
		t.Fatal("padded records did not round-trip")
	}
}
