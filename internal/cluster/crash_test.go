package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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
	reg    *metrics.Registry
	jl     *Journal
	coord  *Coordinator
	m      *Manager
	execC  *experiments.Exec
	execW  *experiments.Exec
	srv    *httptest.Server
	w      *Worker
	killed chan struct{}
}

// bootFabric opens the WAL dir, recovers, compacts, and brings up the
// fabric — the dssmemd boot sequence. killAt > 0 arms the crash seam:
// the journal is killed after that many durable appends (the boot
// compaction snapshot counts as append 1) and killed is closed. The
// fabric keeps running in-memory past the kill, exactly like a daemon
// whose disk stopped mattering the instant before power loss.
func bootFabric(t *testing.T, walDir string, shared *blobstore.Mem, leaseTTL time.Duration, killAt int) *fabric {
	t.Helper()
	f := &fabric{reg: metrics.New(), killed: make(chan struct{})}
	opt := wal.Options{Dir: walDir, Metrics: f.reg}
	if killAt > 0 {
		var once sync.Once
		opt.OnAppend = func(total int) {
			if total >= killAt {
				once.Do(func() {
					f.jl.Kill()
					close(f.killed)
				})
			}
		}
	}
	jl, rec, err := OpenJournal(opt)
	if err != nil {
		t.Fatal(err)
	}
	f.jl = jl
	if err := jl.Snapshot(rec); err != nil {
		t.Fatal(err)
	}

	met := NewMetrics(f.reg)
	f.coord = NewCoordinator(met, Options{LeaseTTL: leaseTTL, Journal: jl})
	f.coord.Restore(rec)
	f.execC = experiments.NewExecConfig(runner.Config{Workers: 2, Blobs: shared, Metrics: f.reg})
	f.m = NewManager(f.execC, f.coord, met)
	f.m.UseJournal(jl)
	f.m.Restore(rec)

	mux := http.NewServeMux()
	mux.Handle("/v1/cluster", f.coord.Handler())
	mux.Handle("/v1/cluster/", f.coord.Handler())
	mux.Handle(blobstore.PathPrefix+"/", blobstore.Handler(shared))
	f.srv = httptest.NewServer(mux)

	regW := metrics.New()
	local := blobstore.NewMem()
	peers := func() []string { return []string{f.srv.URL} }
	f.execW = experiments.NewExecConfig(runner.Config{Workers: 2, Blobs: blobstore.NewFan(local, peers, regW), Metrics: regW})
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

// TestCrashRestartEndToEnd is the durability tentpole's e2e contract:
// a sweep job is crashed mid-flight at several journal append counts,
// a successor daemon boots over the same WAL dir, and the recovered
// job must finish with a report byte-identical to a serial render.
// Only the WAL dir and the shared blob store (the coordinator's
// on-disk cache, content-addressed so duplicated work is harmless)
// survive each crash.
func TestCrashRestartEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full distributed sweep with crash-restart")
	}
	if raceEnabled {
		t.Skip("full distributed sweep is too slow under -race")
	}

	sc := sweepSpec()
	serial := experiments.NewExec(2)
	defer serial.Close()
	var want strings.Builder
	if err := serial.RenderScenario(&want, sc); err != nil {
		t.Fatal(err)
	}

	// One shared store across crash points (a warm cache). The journal
	// recovery under test gets a fresh WAL dir per subtest.
	shared := blobstore.NewMem()

	// Append order: 1 boot snapshot, 2 job submit, 3 task batch, 4+
	// claims/completions/renewals (the running transition is not
	// journaled). So: crash with only the submission durable, with the
	// task graph plus one claim durable, and deep mid-sweep with
	// completions on the log.
	for _, killAt := range []int{2, 4, 14} {
		t.Run(fmt.Sprintf("kill-at-append-%02d", killAt), func(t *testing.T) {
			walDir := t.TempDir()

			doomed := bootFabric(t, walDir, shared, 5*time.Second, killAt)
			id, err := doomed.m.Submit(sc)
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-doomed.killed:
			case <-time.After(4 * time.Minute):
				t.Fatalf("crash point %d never reached", killAt)
			}
			doomed.abandon()

			f := bootFabric(t, walDir, shared, time.Second, 0)
			defer f.shutdown(t)
			if n, _ := f.jl.Recovery(); n < 1 {
				t.Fatalf("restart replayed %d records, want >= 1", n)
			}
			if metricValue(t, f.reg, "dssmem_wal_recovery_records", "", "") < 1 {
				t.Fatal("dssmem_wal_recovery_records not set on the restart registry")
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
