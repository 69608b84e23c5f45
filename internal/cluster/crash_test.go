package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/wal"
)

// fabric is one daemon incarnation: journal, coordinator, manager,
// HTTP surface, and a worker wired through a fan store — the topology
// dssmemd builds, scaled down to one process so the test can crash it
// and boot a successor at will.
type fabric struct {
	reg   *metrics.Registry
	regW  *metrics.Registry // the worker's
	jl    *Journal
	coord *Coordinator
	m     *Manager
	execC *experiments.Exec
	execW *experiments.Exec
	srv   *httptest.Server
	w     *Worker
}

// bootFabric opens the WAL dir, recovers, compacts, and brings up the
// fabric — the dssmemd boot sequence. A test crashes it by killing its
// journal (Journal.Kill); the fabric keeps running in-memory past the
// kill, exactly like a daemon whose disk stopped mattering the instant
// before power loss.
func bootFabric(t *testing.T, walDir string, shared *blobstore.Mem, leaseTTL time.Duration) *fabric {
	t.Helper()
	f := &fabric{reg: metrics.New()}
	jl, rec, err := OpenJournal(wal.Options{Dir: walDir, Metrics: f.reg})
	if err != nil {
		t.Fatal(err)
	}
	f.jl = jl
	if err := jl.Snapshot(rec); err != nil {
		t.Fatal(err)
	}

	met := NewMetrics(f.reg)
	f.coord = NewCoordinator(met, Options{LeaseTTL: leaseTTL})
	f.execC = experiments.NewExecConfig(runner.Config{Workers: 2, Blobs: shared, Metrics: f.reg})
	f.m = NewManager(f.execC, f.coord, met)
	f.m.UseJournal(jl)
	f.m.Restore(rec)

	mux := http.NewServeMux()
	mux.Handle("/v1/cluster", f.coord.Handler())
	mux.Handle("/v1/cluster/", f.coord.Handler())
	mux.Handle(blobstore.PathPrefix+"/", blobstore.Handler(shared))
	f.srv = httptest.NewServer(mux)

	f.regW = metrics.New()
	local := blobstore.NewMem()
	peers := func() []string { return []string{f.srv.URL} }
	f.execW = experiments.NewExecConfig(runner.Config{Workers: 2, Blobs: blobstore.NewFan(local, peers, f.regW), Metrics: f.regW})
	w, err := StartWorker(WorkerConfig{
		Coordinator: f.srv.URL, Name: "crash-worker",
		Exec: f.execW, Blobs: local, Poll: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.w = w
	waitFor(t, 10*time.Second, "worker to register", func() bool {
		return f.coord.Workers() == 1
	})
	f.m.Resume(rec)
	return f
}

// abandon tears the doomed incarnation down with no drain ordering —
// its journal is already dead, so nothing here reaches the log; this
// only exists so the test process doesn't leak goroutines. The
// coordinator closes before the manager so in-flight batches abort
// instead of being waited out.
func (f *fabric) abandon() {
	f.w.Close()
	f.srv.Close()
	f.coord.Close()
	f.m.Close()
	f.execC.Close()
	f.execW.Close()
}

// shutdown is the clean dssmemd drain order: worker releases, fabric
// settles, journal closes last.
func (f *fabric) shutdown(t *testing.T) {
	t.Helper()
	f.w.Close()
	f.srv.Close()
	f.m.Close()
	f.coord.Close()
	if err := f.jl.Close(); err != nil {
		t.Errorf("journal close: %v", err)
	}
	f.execC.Close()
	f.execW.Close()
}

// crashImage copies the shared store as it stands: what a crash at
// this instant leaves on the coordinator's disk. The abandoned
// incarnation goes on writing to the original — once its coordinator
// closes, its manager finishes the job locally — and none of that may
// reach the successor.
func crashImage(t *testing.T, s *blobstore.Mem) *blobstore.Mem {
	t.Helper()
	img := blobstore.NewMem()
	for _, ns := range []string{blobstore.NSResult, blobstore.NSTrace} {
		infos, err := s.List(ns, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range infos {
			b, err := s.Get(ns, in.Key)
			if err == nil {
				err = img.Put(ns, in.Key, b)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return img
}

// TestCrashRestartEndToEnd is the durability contract end to end: a
// sweep job's daemon is crashed at three points of progress, a
// successor boots over the same WAL dir, and the recovered job must
// finish with a report byte-identical to a serial render. Each crash
// point is reached by polling the coordinator, then killing the
// journal: with only the submission durable, with tasks dispatched and
// one claimed, and with at least half the points done and pushed to
// the shared store. The journal holds the same two records in all
// three; what differs is how much of the sweep the successor finds in
// the shared store, and every point it finds there is served, not
// simulated again. Only the WAL dir and that store (the coordinator's
// on-disk cache, content-addressed so duplicated work is harmless)
// survive each crash, each as it stood at the kill.
func TestCrashRestartEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full distributed sweep with crash-restart")
	}
	if raceEnabled {
		t.Skip("full distributed sweep is too slow under -race")
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
		crash func(Status) bool
	}{
		// Submit returns only once its record is durable.
		{"kill-after-submit", func(Status) bool { return true }},
		{"kill-with-task-claimed", func(st Status) bool { return st.Tasks[StateLeased] >= 1 }},
		// A worker pushes a point's blobs before completing its task.
		{"kill-with-half-done", func(st Status) bool { return st.Tasks[StateDone] >= 5 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			walDir := t.TempDir()
			shared := blobstore.NewMem()

			doomed := bootFabric(t, walDir, shared, 5*time.Second)
			id, err := doomed.m.Submit(sc)
			if err != nil {
				t.Fatal(err)
			}
			var atKill Status
			waitFor(t, 4*time.Minute, "crash point", func() bool {
				atKill = doomed.coord.Status()
				return tc.crash(atKill)
			})
			doomed.jl.Kill()
			survivor := crashImage(t, shared)
			doomed.abandon()
			// Points whose result reached the shared store: every task
			// done at the kill, and any the worker pushed since.
			stored := 0
			for _, p := range plans {
				if _, err := survivor.Get(blobstore.NSResult, p.ResultKey()); err == nil {
					stored++
				}
			}
			if stored < atKill.Tasks[StateDone] {
				t.Fatalf("%d points stored after a kill with %d tasks done", stored, atKill.Tasks[StateDone])
			}

			f := bootFabric(t, walDir, survivor, time.Second)
			defer f.shutdown(t)
			if n, _ := f.jl.Recovery(); n != 2 {
				t.Fatalf("restart replayed %d records, want the boot snapshot and the submission", n)
			}
			if n := metricValue(t, f.reg, "dssmem_wal_recovery_records", "", ""); n != 2 {
				t.Fatalf("dssmem_wal_recovery_records = %v on the restart registry, want 2", n)
			}
			if _, ok := f.m.Status(id); !ok {
				t.Fatalf("job %s unknown after restart", id)
			}
			var st JobStatus
			waitFor(t, 4*time.Minute, "recovered job to finish", func() bool {
				st, _ = f.m.Status(id)
				return st.State == StateDone || st.State == StateFailed
			})
			if st.State != StateDone {
				t.Fatalf("recovered job failed: %s", st.Error)
			}
			if st.Progress.Total != 10 || st.Progress.Done != 10 {
				t.Fatalf("recovered progress = %+v, want 10/10", st.Progress)
			}
			// The re-run re-distributed every point, and simulated only
			// those the shared store lacked: a stored point's result, and
			// its capture's, are cache hits. Each unstored point costs
			// one executed job at most — its replay, or its capture.
			if done := f.coord.Status().Tasks[StateDone]; done != 10 {
				t.Fatalf("successor settled %d tasks done, want 10", done)
			}
			executed := metricValue(t, f.reg, "dssmem_runner_jobs_completed_total", "", "") +
				metricValue(t, f.regW, "dssmem_runner_jobs_completed_total", "", "")
			t.Logf("%d of %d points stored at the kill; successor executed %v jobs", stored, len(plans), executed)
			if executed > float64(len(plans)-stored) {
				t.Fatalf("successor executed %v jobs with %d of %d points stored, want at most %d",
					executed, stored, len(plans), len(plans)-stored)
			}
			report, _, _, _, err := f.m.Report(id)
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

// TestJournalSweepAppends pins the journal cost of a distributed
// sweep: the 10-point sweep, run through one worker, appends exactly
// two records beyond the boot snapshot — its submission and its
// terminal transition. Its 10 tasks leave no trace in the log.
func TestJournalSweepAppends(t *testing.T) {
	if testing.Short() {
		t.Skip("full distributed sweep")
	}
	if raceEnabled {
		t.Skip("full distributed sweep is too slow under -race")
	}
	f := bootFabric(t, t.TempDir(), blobstore.NewMem(), 5*time.Second)
	defer f.shutdown(t)
	boot := f.jl.Appends()
	id, err := f.m.Submit(sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !f.m.Wait(context.Background(), id) {
		t.Fatalf("job %s never finished", id)
	}
	if st, _ := f.m.Status(id); st.State != StateDone {
		t.Fatalf("job %s = %s (%s), want done", id, st.State, st.Error)
	}
	if done := f.coord.Status().Tasks[StateDone]; done != 10 {
		t.Fatalf("worker settled %d tasks done, want 10", done)
	}
	if got := f.jl.Appends() - boot; got != 2 {
		t.Fatalf("distributed sweep appended %d records beyond the boot snapshot, want 2", got)
	}
}
