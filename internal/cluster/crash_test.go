package cluster

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/wal"
)

// daemon is one dssmemd incarnation scaled down to one process: its
// journal, its manager, and an Exec whose result cache and trace store
// live under one state directory — so the test can crash it and boot a
// successor at will.
type daemon struct {
	reg  *metrics.Registry
	jl   *Journal
	m    *Manager
	exec *experiments.Exec
}

// bootDaemon opens the WAL dir, recovers, compacts, and brings up the
// manager over the cache and trace dirs under state — the dssmemd boot
// sequence. A test crashes it by killing its journal (Journal.Kill);
// the daemon keeps running in-memory past the kill, exactly like a
// daemon whose disk stopped mattering the instant before power loss.
func bootDaemon(t *testing.T, walDir, state string) *daemon {
	t.Helper()
	d := &daemon{reg: metrics.New()}
	jl, rec, err := OpenJournal(wal.Options{Dir: walDir, Metrics: d.reg})
	if err != nil {
		t.Fatal(err)
	}
	d.jl = jl
	if err := jl.Snapshot(rec); err != nil {
		t.Fatal(err)
	}
	d.exec = experiments.NewExecConfig(runner.Config{Workers: 2,
		CacheDir: filepath.Join(state, "cache"), TraceDir: filepath.Join(state, "trace"),
		Metrics: d.reg})
	d.m = NewManager(d.exec, d.reg)
	d.m.UseJournal(jl)
	d.m.Restore(rec)
	d.m.Resume(rec)
	return d
}

// abandon tears the doomed incarnation down with no drain ordering —
// its journal is already dead, so nothing here reaches the log; this
// only exists so the test process doesn't leak goroutines. The pool
// closes before the manager, so the in-flight render's queued points
// are cancelled instead of waited out.
func (d *daemon) abandon() {
	d.exec.Close()
	d.m.Close()
}

// shutdown is the clean dssmemd drain order: jobs settle, the journal
// closes, the pool drains.
func (d *daemon) shutdown(t *testing.T) {
	t.Helper()
	d.m.Close()
	if err := d.jl.Close(); err != nil {
		t.Errorf("journal close: %v", err)
	}
	d.exec.Close()
}

// crashImage copies the state directory's blobs as they stand: what a
// crash at this instant leaves on disk. Blobs land by rename, so every
// file copied is whole; the store's temp files are left behind, as a
// restarted daemon ignores them. The abandoned incarnation goes on
// writing to the original, and none of that may reach the successor.
func crashImage(t *testing.T, state string) string {
	t.Helper()
	img := t.TempDir()
	for _, sub := range []string{"cache", "trace"} {
		if err := os.MkdirAll(filepath.Join(img, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(filepath.Join(state, sub))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if ext := filepath.Ext(e.Name()); ext != ".gob" && ext != ".trace" {
				continue
			}
			if err := copyFile(filepath.Join(state, sub, e.Name()), filepath.Join(img, sub, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	return img
}

func copyFile(from, to string) error {
	src, err := os.Open(from)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}

// TestCrashRestartEndToEnd is the durability contract end to end: a
// sweep job's daemon is crashed at three points of progress, a
// successor boots over the same WAL dir, and the recovered job must
// finish with a report byte-identical to a serial render. Each crash
// point is reached by polling the manager's progress, which counts a
// point only once the pool has settled it — after its result is on
// disk — and then killing the journal: with only the submission
// durable, with the job running and at least one point stored, and
// with at least half the points stored. The journal holds the same two
// records in all three; what differs is how much of the sweep the
// successor finds in the cache and trace dirs, and every point it finds
// there is served, not simulated again. Only the WAL dir and those
// dirs survive each crash, each as it stood at the kill.
func TestCrashRestartEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep with crash-restart")
	}
	if raceEnabled {
		t.Skip("full sweep is too slow under -race")
	}

	sc := sweepSpec()
	plans, _ := experiments.PlanScenario(sc)
	serial := experiments.NewExec(2)
	defer serial.Close()
	var want strings.Builder
	if err := serial.RenderScenario(&want, sc); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		crash func(JobStatus) bool
	}{
		// Submit returns only once its record is durable.
		{"kill-after-submit", func(JobStatus) bool { return true }},
		{"kill-with-one-point-stored", func(st JobStatus) bool {
			return st.State == StateRunning && st.Progress.Done >= 1
		}},
		{"kill-with-half-done", func(st JobStatus) bool {
			return st.State == StateRunning && st.Progress.Done >= len(plans)/2
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			walDir, state := t.TempDir(), t.TempDir()

			doomed := bootDaemon(t, walDir, state)
			id, err := doomed.m.Submit(sc)
			if err != nil {
				t.Fatal(err)
			}
			var atKill JobStatus
			waitFor(t, 4*time.Minute, "crash point", func() bool {
				atKill, _ = doomed.m.Status(id)
				return tc.crash(atKill)
			})
			doomed.jl.Kill()
			survivor := crashImage(t, state)
			doomed.abandon()
			// Points whose result reached the disk: every point settled
			// at the kill, and any the doomed pool stored since.
			stored := 0
			for _, p := range plans {
				if _, err := os.Stat(filepath.Join(survivor, "cache", p.ResultKey()+".gob")); err == nil {
					stored++
				}
			}
			if stored < atKill.Progress.Done {
				t.Fatalf("%d points stored after a kill with %d settled", stored, atKill.Progress.Done)
			}

			d := bootDaemon(t, walDir, survivor)
			defer d.shutdown(t)
			if n, _ := d.jl.Recovery(); n != 2 {
				t.Fatalf("restart replayed %d records, want the boot snapshot and the submission", n)
			}
			if n := metricValue(t, d.reg, "dssmem_wal_recovery_records", "", ""); n != 2 {
				t.Fatalf("dssmem_wal_recovery_records = %v on the restart registry, want 2", n)
			}
			if _, ok := d.m.Status(id); !ok {
				t.Fatalf("job %s unknown after restart", id)
			}
			var st JobStatus
			waitFor(t, 4*time.Minute, "recovered job to finish", func() bool {
				st, _ = d.m.Status(id)
				return st.State == StateDone || st.State == StateFailed
			})
			if st.State != StateDone {
				t.Fatalf("recovered job failed: %s", st.Error)
			}
			if st.Progress.Total != len(plans) || st.Progress.Done != len(plans) {
				t.Fatalf("recovered progress = %+v, want %d/%d", st.Progress, len(plans), len(plans))
			}
			// The re-run simulated only the points the disk lacked: a
			// stored point's result, and its capture's, are cache hits.
			// Each unstored point costs one executed job at most — its
			// replay, or its capture.
			executed := metricValue(t, d.reg, "dssmem_runner_jobs_completed_total", "", "")
			t.Logf("%d of %d points stored at the kill; successor executed %v jobs", stored, len(plans), executed)
			if executed > float64(len(plans)-stored) {
				t.Fatalf("successor executed %v jobs with %d of %d points stored, want at most %d",
					executed, stored, len(plans), len(plans)-stored)
			}
			report, _, _, _, err := d.m.Report(id)
			if err != nil {
				t.Fatal(err)
			}
			if report != want.String() {
				t.Fatalf("recovered report differs from serial render:\n--- recovered ---\n%s\n--- serial ---\n%s",
					report, want.String())
			}
		})
	}
}

// TestJournalSweepAppends pins the journal cost of a sweep: the
// 10-point sweep appends exactly two records beyond the boot snapshot —
// its submission and its terminal transition. Its points leave no trace
// in the log.
func TestJournalSweepAppends(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	if raceEnabled {
		t.Skip("full sweep is too slow under -race")
	}
	d := bootDaemon(t, t.TempDir(), t.TempDir())
	defer d.shutdown(t)
	boot := d.jl.Appends()
	sc := sweepSpec()
	id, err := d.m.Submit(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !d.m.Wait(context.Background(), id) {
		t.Fatalf("job %s never finished", id)
	}
	st, _ := d.m.Status(id)
	if st.State != StateDone {
		t.Fatalf("job %s = %s (%s), want done", id, st.State, st.Error)
	}
	if plans, _ := experiments.PlanScenario(sc); st.Progress.Done != len(plans) || len(plans) != 10 {
		t.Fatalf("sweep settled %d of %d points, want 10 of 10", st.Progress.Done, len(plans))
	}
	if got := d.jl.Appends() - boot; got != 2 {
		t.Fatalf("sweep appended %d records beyond the boot snapshot, want 2", got)
	}
}
