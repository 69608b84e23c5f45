package cluster

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/wal"
)

func openTestJournal(t *testing.T, fs wal.FS) (*Journal, *Recovered) {
	t.Helper()
	jl, rec, err := OpenJournal(wal.Options{Dir: "j", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	return jl, rec
}

// TestJournalCoordinatorRestart is the crash contract at the task
// level: kill a coordinator mid-batch, restore a new one from the
// journal, and the done task stays done, the leased task expires onto
// the queue, the untouched task is still claimable — and a re-submitted
// batch with the same deterministic ids adopts all of them.
func TestJournalCoordinatorRestart(t *testing.T) {
	fs := wal.NewMemFS()
	jl, _ := openTestJournal(t, fs)
	c1 := NewCoordinator(NewMetrics(metrics.New()), Options{LeaseTTL: time.Minute, Journal: jl})
	defer c1.Close()
	w1, _ := c1.Register("pre-crash", "")
	tasks := []Task{{ID: "j-1/t0"}, {ID: "j-1/t1"}, {ID: "j-1/t2", Deps: []string{"j-1/t0"}}}
	runBatch(t, c1, tasks, nil)

	first, err := c1.Claim(w1)
	if err != nil || first == nil || first.ID != "j-1/t0" {
		t.Fatalf("claim: %+v, %v", first, err)
	}
	if err := c1.Complete(w1, first.ID, ""); err != nil {
		t.Fatal(err)
	}
	second, _ := c1.Claim(w1)
	if second == nil {
		t.Fatal("second claim came back empty")
	}
	// Crash: only durable bytes survive; the dead coordinator is
	// abandoned with its lease still out.
	img := fs.Crash()

	jl2, rec := openTestJournal(t, img)
	if len(rec.Tasks) != 3 {
		t.Fatalf("recovered %d tasks, want 3", len(rec.Tasks))
	}
	reg2 := metrics.New()
	c2 := NewCoordinator(NewMetrics(reg2), Options{LeaseTTL: 50 * time.Millisecond, Journal: jl2})
	defer c2.Close()
	c2.Restore(rec)
	if st := c2.Status(); st.Tasks[StateDone] != 1 || st.Tasks[StateLeased] != 1 || st.Tasks[StateQueued] != 1 {
		t.Fatalf("restored task states = %v, want 1 done / 1 leased / 1 queued", st.Tasks)
	}
	// Worker ids never rewind: the ghost held w1, so the next grant is w2.
	w2, _ := c2.Register("post-crash", "")
	if w2 != "w2" {
		t.Fatalf("post-restart worker id = %s, want w2", w2)
	}

	// The resumed job re-submits the same batch: the done task settles
	// against it immediately, the rest drain through the new worker once
	// the ghost's re-armed lease expires.
	settled := make(chan string, len(tasks))
	errCh := make(chan error, 1)
	go func() {
		errCh <- c2.RunTasks(context.Background(), tasks, func(task Task, terr error) {
			if terr == nil {
				settled <- task.ID
			}
		})
	}()
	if got := <-settled; got != "j-1/t0" {
		t.Fatalf("first settled task = %s, want the pre-crash done j-1/t0", got)
	}
	for remaining := 2; remaining > 0; {
		task, err := c2.Claim(w2)
		if err != nil {
			t.Fatal(err)
		}
		if task == nil {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		if err := c2.Complete(w2, task.ID, ""); err != nil {
			t.Fatal(err)
		}
		remaining--
	}
	if err := <-errCh; err != nil {
		t.Fatalf("resumed batch: %v", err)
	}
	// The ghost's lease went through the normal expiry path.
	if n := metricValue(t, reg2, "dssmem_cluster_lease_expirations_total", "", ""); n < 1 {
		t.Fatalf("recovered lease never expired (%v)", n)
	}
}

// TestJournalDrainRestart is the SIGTERM-drain satellite: a drained
// worker's Release is journaled before exit, so the restarted
// coordinator restores the task as queued — claimable at once, with
// zero lease expirations.
func TestJournalDrainRestart(t *testing.T) {
	fs := wal.NewMemFS()
	jl, _ := openTestJournal(t, fs)
	c1 := NewCoordinator(NewMetrics(metrics.New()), Options{LeaseTTL: time.Minute, Journal: jl})
	defer c1.Close()
	w, _ := c1.Register("drainee", "")
	runBatch(t, c1, []Task{{ID: "d/t0"}}, nil)
	task, err := c1.Claim(w)
	if err != nil || task == nil {
		t.Fatalf("claim: %+v, %v", task, err)
	}
	// The dssmemd drain order: worker releases its lease and leaves,
	// then the journal closes cleanly.
	if err := c1.Release(w, task.ID); err != nil {
		t.Fatal(err)
	}
	c1.Leave(w)
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	jl2, rec := openTestJournal(t, fs)
	reg2 := metrics.New()
	c2 := NewCoordinator(NewMetrics(reg2), Options{LeaseTTL: time.Minute, Journal: jl2})
	defer c2.Close()
	c2.Restore(rec)
	if st := c2.Status(); st.Tasks[StateQueued] != 1 {
		t.Fatalf("restored task states = %v, want the drained task queued", st.Tasks)
	}
	// Claimable immediately — no TTL to wait out (TTL here is a minute;
	// the test finishes in milliseconds only because no lease expires).
	w2, _ := c2.Register("fresh", "")
	reclaimed, err := c2.Claim(w2)
	if err != nil || reclaimed == nil || reclaimed.ID != "d/t0" {
		t.Fatalf("reclaim after drain-restart: %+v, %v", reclaimed, err)
	}
	if err := c2.Complete(w2, reclaimed.ID, ""); err != nil {
		t.Fatal(err)
	}
	if n := metricValue(t, reg2, "dssmem_cluster_lease_expirations_total", "", ""); n != 0 {
		t.Fatalf("drain-restart cost %v lease expirations, want 0", n)
	}
}

// TestJournalSnapshotRoundTrip: compacting to a snapshot and replaying
// it yields the identical recovered state, stragglers and unknown
// record kinds are harmless, and MaxWorker survives.
func TestJournalSnapshotRoundTrip(t *testing.T) {
	fs := wal.NewMemFS()
	jl, _ := openTestJournal(t, fs)
	jl.append(journalRecord{Kind: recJobSubmit, Job: "j-1", Name: "sweep", Spec: "spec-text"})
	jl.append(journalRecord{Kind: recJobState, Job: "j-1", State: StateRunning, Total: 3})
	jl.append(journalRecord{Kind: recTaskAdd, Tasks: []Task{{ID: "j-1/t0"}, {ID: "j-1/t1"}, {ID: "j-1/t2"}}})
	jl.append(journalRecord{Kind: recTaskClaim, TaskID: "j-1/t0", Worker: "w7", Attempts: 1})
	jl.append(journalRecord{Kind: recTaskDone, TaskID: "j-1/t0"})
	jl.append(journalRecord{Kind: recTaskClaim, TaskID: "j-1/t1", Worker: "w2", Attempts: 2})
	jl.append(journalRecord{Kind: recTaskFail, TaskID: "j-1/t1", Error: "boom", Attempts: 2})
	jl.append(journalRecord{Kind: "future.kind", Job: "whatever"}) // skipped, not fatal
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	jl2, rec := openTestJournal(t, fs)
	if len(rec.Jobs) != 1 || len(rec.Tasks) != 3 || rec.MaxWorker != 7 {
		t.Fatalf("recovered %d jobs / %d tasks / max worker %d", len(rec.Jobs), len(rec.Tasks), rec.MaxWorker)
	}
	if rec.Tasks[0].State != StateDone || rec.Tasks[1].State != StateFailed || rec.Tasks[2].State != StateQueued {
		t.Fatalf("task states = %s/%s/%s", rec.Tasks[0].State, rec.Tasks[1].State, rec.Tasks[2].State)
	}
	if err := jl2.Snapshot(rec); err != nil {
		t.Fatal(err)
	}
	if err := jl2.Close(); err != nil {
		t.Fatal(err)
	}

	jl3, rec2 := openTestJournal(t, fs)
	defer jl3.Close()
	if n, _ := jl3.Recovery(); n != 1 {
		t.Fatalf("post-compaction open replayed %d records, want just the snapshot", n)
	}
	if !reflect.DeepEqual(rec, rec2) {
		t.Fatalf("snapshot did not round-trip:\npre:  %+v\npost: %+v", rec, rec2)
	}
}

// TestJournalManagerRestart: a finished job's id, state, progress, and
// report all survive a crash-restart; new submissions never reuse a
// pre-crash id.
func TestJournalManagerRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("renders a real scenario")
	}
	fs := wal.NewMemFS()
	jl, _ := openTestJournal(t, fs)
	exec := experiments.NewExec(2)
	defer exec.Close()
	m := NewManager(exec, nil, nil)
	m.UseJournal(jl)
	id, err := m.Submit(coldSpec())
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	waitFor(t, 2*time.Minute, "job to finish", func() bool {
		st, _ = m.Status(id)
		return st.State == StateDone || st.State == StateFailed
	})
	if st.State != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	report, _, _, _, err := m.Report(id)
	if err != nil {
		t.Fatal(err)
	}

	// Crash (no Close, no final sync) and restart from durable bytes.
	img := fs.Crash()
	jl2, rec := openTestJournal(t, img)
	defer jl2.Close()
	exec2 := experiments.NewExec(2)
	defer exec2.Close()
	m2 := NewManager(exec2, nil, nil)
	m2.UseJournal(jl2)
	m2.Restore(rec)
	defer m2.Close()

	st2, ok := m2.Status(id)
	if !ok {
		t.Fatalf("job %s unknown after restart", id)
	}
	if st2.State != StateDone || st2.Progress.Done != st.Progress.Done || st2.Progress.Total != st.Progress.Total {
		t.Fatalf("restored status = %+v, want done %+v", st2, st.Progress)
	}
	report2, _, _, _, err := m2.Report(id)
	if err != nil {
		t.Fatal(err)
	}
	if report2 != report {
		t.Fatal("restored report differs from the pre-crash report")
	}
	// Terminal restored jobs still stream a closing event.
	replay, live, cancel, ok := m2.Subscribe(id)
	if !ok {
		t.Fatal("subscribe to restored job failed")
	}
	cancel()
	for range live {
	}
	if len(replay) == 0 || replay[len(replay)-1].State != StateDone {
		t.Fatalf("restored job events = %+v, want a terminal state event", replay)
	}
	id2, err := m2.Submit(coldSpec())
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatalf("post-restart submission reused pre-crash id %s", id)
	}
}

// TestJournalWarmJobAppends pins the warm path's journal cost: once a
// spec is cached, each resubmission appends and fsyncs exactly two
// records — the submission before its id escapes, the terminal
// transition before the state flip — and nothing for going running.
func TestJournalWarmJobAppends(t *testing.T) {
	if testing.Short() {
		t.Skip("renders a real scenario")
	}
	reg := metrics.New()
	jl, _, err := OpenJournal(wal.Options{Dir: "j", FS: wal.NewMemFS(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	exec := experiments.NewExec(2)
	defer exec.Close()
	m := NewManager(exec, nil, nil)
	m.UseJournal(jl)
	defer m.Close()

	run := func() {
		t.Helper()
		id, err := m.Submit(coldSpec())
		if err != nil {
			t.Fatal(err)
		}
		if !m.Wait(context.Background(), id) {
			t.Fatalf("job %s never finished", id)
		}
		if st, _ := m.Status(id); st.State != StateDone {
			t.Fatalf("job %s = %s (%s), want done", id, st.State, st.Error)
		}
	}
	run() // prime the cache
	appends := metricValue(t, reg, "dssmem_wal_appends_total", "", "")
	fsyncs := metricValue(t, reg, "dssmem_wal_fsyncs_total", "", "")
	const jobs = 20
	for i := 0; i < jobs; i++ {
		run()
	}
	if got := metricValue(t, reg, "dssmem_wal_appends_total", "", "") - appends; got != 2*jobs {
		t.Errorf("%d warm jobs appended %v records, want %d", jobs, got, 2*jobs)
	}
	if got := metricValue(t, reg, "dssmem_wal_fsyncs_total", "", "") - fsyncs; got != 2*jobs {
		t.Errorf("%d warm jobs issued %v fsyncs, want %d", jobs, got, 2*jobs)
	}
}

// TestJournalRestoreUnfinishedTotal: a job recovered from a log that
// holds only its submission reads 0 of its planned total before Resume
// re-runs it — the total comes from the spec, not from a record.
func TestJournalRestoreUnfinishedTotal(t *testing.T) {
	fs := wal.NewMemFS()
	jl, _ := openTestJournal(t, fs)
	sc := sweepSpec()
	jl.append(journalRecord{Kind: recJobSubmit, Job: "j-1", Name: sc.Name,
		Spec: string(sc.Canonical()), Submitted: time.Now()})
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	jl2, rec := openTestJournal(t, fs)
	defer jl2.Close()
	exec := experiments.NewExec(1)
	defer exec.Close()
	m := NewManager(exec, nil, nil)
	m.UseJournal(jl2)
	m.Restore(rec)
	defer m.Close()

	st, ok := m.Status("j-1")
	if !ok {
		t.Fatal("restored job unknown")
	}
	want := len(experiments.ProgressKeys(sc))
	if st.State != StateQueued || st.Progress.Done != 0 || st.Progress.Total != want || want == 0 {
		t.Fatalf("restored status = %s %+v, want queued 0/%d", st.State, st.Progress, want)
	}
}
