package cluster

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/runner"
)

// daemon is one dssmemd incarnation scaled down to one process: its
// manager over a spec directory, and an Exec whose result cache and
// trace store live beside it under one state directory — so the test
// can crash it and boot a successor at will.
type daemon struct {
	reg  *metrics.Registry
	m    *Manager
	exec *experiments.Exec
}

// bootDaemon brings up the manager over the spec, cache and trace dirs
// under state — the dssmemd boot sequence, which re-queues every stored
// spec.
func bootDaemon(t *testing.T, state string) *daemon {
	t.Helper()
	d := &daemon{reg: metrics.New()}
	d.exec = experiments.NewExecConfig(runner.Config{Workers: 2,
		CacheDir: filepath.Join(state, "cache"), TraceDir: filepath.Join(state, "trace"),
		Metrics: d.reg})
	m, err := NewManager(d.exec, d.reg, filepath.Join(state, "spec"))
	if err != nil {
		t.Fatal(err)
	}
	d.m = m
	return d
}

// abandon tears the doomed incarnation down with no drain ordering;
// it only exists so the test process doesn't leak goroutines. The pool
// closes before the manager, so the in-flight render's queued points
// are cancelled instead of waited out.
func (d *daemon) abandon() {
	d.exec.Close()
	d.m.Close()
}

// shutdown is the clean dssmemd drain order: jobs settle, the pool
// drains.
func (d *daemon) shutdown() {
	d.m.Close()
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
	for _, sub := range []string{"cache", "trace", "spec"} {
		if err := os.MkdirAll(filepath.Join(img, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(filepath.Join(state, sub))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if ext := filepath.Ext(e.Name()); ext != ".gob" && ext != ".trace" && ext != specExt {
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
// successor boots over what the crash left on disk, and the re-queued
// job must finish under its id with a report byte-identical to a
// serial render. Each crash point is reached by polling the manager's
// progress, which counts a point only once the pool has settled it —
// after its result is on disk: with only the spec stored, with the job
// running and at least one point stored, and with at least half the
// points stored. The spec directory is the same in all three; what
// differs is how much of the sweep the successor finds in the cache
// and trace dirs, and every point it finds there is served, not
// simulated again.
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
		// Submit returns only once the spec is durable.
		{"kill-after-submit", func(JobStatus) bool { return true }},
		{"kill-with-one-point-stored", func(st JobStatus) bool {
			return st.State == StateRunning && st.Progress.Done >= 1
		}},
		{"kill-with-half-done", func(st JobStatus) bool {
			return st.State == StateRunning && st.Progress.Done >= len(plans)/2
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			state := t.TempDir()
			doomed := bootDaemon(t, state)
			id, _, err := doomed.m.Submit(sc)
			if err != nil {
				t.Fatal(err)
			}
			var atKill JobStatus
			waitFor(t, 4*time.Minute, "crash point", func() bool {
				atKill, _ = doomed.m.Status(id)
				return tc.crash(atKill)
			})
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
			if specs, _ := os.ReadDir(filepath.Join(survivor, "spec")); len(specs) != 1 || specs[0].Name() != id+specExt {
				t.Fatalf("spec dir at the kill = %v, want %s%s alone", specs, id, specExt)
			}

			d := bootDaemon(t, survivor)
			defer d.shutdown()
			if st, ok := d.m.Status(id); !ok || st.State == StateFailed {
				t.Fatalf("job %s after restart: %+v (known %v), want re-queued", id, st, ok)
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
