package cluster

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/scenario"
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

// TestJournalResumeClaimable: after a restart, every task of the
// resumed job is claimable at once, however the previous incarnation
// left its leases — crashed with a task leased to a worker that died
// with it, or drained, its worker having released the task and left
// before the journal closed. Tasks are not journaled, so the successor
// never inherits a dead worker's lease: with a one-minute TTL, the
// re-run is claimed through within 2s and no lease expires.
func TestJournalResumeClaimable(t *testing.T) {
	if testing.Short() {
		t.Skip("renders a real scenario")
	}
	sc := coldSpec()
	sc.Sweep = scenario.Sweep{Axis: scenario.AxisPrefetch, Points: []int{0, 1, 2}}
	plans, _ := experiments.PlanScenario(sc)
	for _, name := range []string{"crash", "drain"} {
		t.Run(name, func(t *testing.T) {
			fs := wal.NewMemFS()
			jl, _ := openTestJournal(t, fs)
			c1 := NewCoordinator(nil, Options{LeaseTTL: time.Minute})
			exec1 := experiments.NewExec(1)
			m1 := NewManager(exec1, c1, nil)
			m1.UseJournal(jl)
			ghost, _ := c1.Register("ghost", "")
			id, err := m1.Submit(sc)
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, 10*time.Second, "tasks to dispatch", func() bool {
				return c1.Status().Tasks[StateQueued] == len(plans)
			})
			task, err := c1.Claim(ghost)
			if err != nil || task == nil {
				t.Fatalf("claim: %+v, %v", task, err)
			}
			img := fs
			if name == "crash" {
				// Only durable bytes survive; the ghost's lease is out.
				img = fs.Crash()
			} else {
				// The dssmemd drain order for a worker: release, leave;
				// the journal then closes cleanly.
				if err := c1.Release(ghost, task.ID); err != nil {
					t.Fatal(err)
				}
				c1.Leave(ghost)
				if err := jl.Close(); err != nil {
					t.Fatal(err)
				}
			}
			// Retire the first incarnation. Its coordinator fails the
			// batch, so its manager finishes the job locally; nothing it
			// writes afterwards reaches the image the successor opens.
			c1.Close()
			m1.Close()
			exec1.Close()

			jl2, rec := openTestJournal(t, img)
			defer jl2.Close()
			reg2 := metrics.New()
			met2 := NewMetrics(reg2)
			c2 := NewCoordinator(met2, Options{LeaseTTL: time.Minute})
			exec2 := experiments.NewExec(1)
			defer exec2.Close()
			m2 := NewManager(exec2, c2, met2)
			m2.UseJournal(jl2)
			m2.Restore(rec)
			// Coordinator first, so a failing run's batch aborts instead
			// of being waited out.
			defer func() {
				c2.Close()
				m2.Close()
			}()
			w, _ := c2.Register("successor", "")
			m2.Resume(rec)

			deadline := time.Now().Add(2 * time.Second)
			for claimed := 0; claimed < len(plans); {
				if time.Now().After(deadline) {
					t.Fatalf("claimed %d of %d resumed tasks within 2s: %v", claimed, len(plans), c2.Status().Tasks)
				}
				task, err := c2.Claim(w)
				if err != nil {
					t.Fatal(err)
				}
				if task == nil {
					time.Sleep(2 * time.Millisecond)
					continue
				}
				if err := c2.Complete(w, task.ID, ""); err != nil {
					t.Fatal(err)
				}
				claimed++
			}
			if !m2.Wait(context.Background(), id) {
				t.Fatalf("resumed job %s never finished", id)
			}
			if st, _ := m2.Status(id); st.State != StateDone {
				t.Fatalf("resumed job = %s (%s), want done", st.State, st.Error)
			}
			if n := metricValue(t, reg2, "dssmem_cluster_lease_expirations_total", "", ""); n != 0 {
				t.Fatalf("restart cost %v lease expirations, want 0", n)
			}
		})
	}
}

// TestJournalSnapshotRoundTrip: compacting to a snapshot and replaying
// it yields the identical recovered jobs, and stragglers and unknown
// record kinds are harmless.
func TestJournalSnapshotRoundTrip(t *testing.T) {
	fs := wal.NewMemFS()
	jl, _ := openTestJournal(t, fs)
	sub := time.Date(2026, 10, 1, 12, 0, 0, 0, time.UTC)
	jl.append(journalRecord{Kind: recJobSubmit, Job: "j-1", Name: "sweep", Spec: "spec-1", Submitted: sub})
	jl.append(journalRecord{Kind: recJobSubmit, Job: "j-2", Spec: "spec-2", Submitted: sub})
	// Logs written before the running transition stopped being
	// journaled carry one; it must still replay.
	jl.append(journalRecord{Kind: recJobState, Job: "j-2", State: StateRunning, Total: 4})
	jl.append(journalRecord{Kind: recJobState, Job: "j-1", State: StateDone, Report: "report",
		Done: 3, Total: 3, Finished: sub.Add(time.Minute)})
	jl.append(journalRecord{Kind: recJobSubmit, Job: "j-1", Spec: "again"})   // duplicate: skipped
	jl.append(journalRecord{Kind: recJobState, Job: "j-9", State: StateDone}) // unknown job: skipped
	jl.append(journalRecord{Kind: "future.kind", Job: "whatever"})            // skipped, not fatal
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	jl2, rec := openTestJournal(t, fs)
	want := &Recovered{Jobs: []RecoveredJob{
		{ID: "j-1", Name: "sweep", Spec: "spec-1", State: StateDone, Report: "report",
			Done: 3, Total: 3, Submitted: sub, Finished: sub.Add(time.Minute)},
		{ID: "j-2", Spec: "spec-2", State: StateRunning, Total: 4, Submitted: sub},
	}}
	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("recovered %+v\nwant      %+v", rec, want)
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

// TestJournalOpensOldTaskLog: a log written when tasks were journaled
// still opens. Its task.add/claim/renew/requeue/done/fail records are
// skipped without error, the tasks and max_worker of its snapshot are
// ignored, it replays to the same jobs as the log with every task
// record stripped, and the boot snapshot written over it holds jobs
// only. Such logs also journaled the running transition: a job whose
// last record is one is re-queued by Manager.Restore.
func TestJournalOpensOldTaskLog(t *testing.T) {
	sc := coldSpec()
	plans, _ := experiments.PlanScenario(sc)
	task := Task{ID: "j-2/t0", Plan: plans[0], Blobs: plans[0].Blobs()}
	sub := time.Date(2026, 10, 1, 12, 0, 0, 0, time.UTC)
	rec := func(kind string, fields map[string]any) []byte {
		fields["kind"] = kind
		b, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	done := RecoveredJob{ID: "j-1", Spec: "spec-1", State: StateDone, Report: "report", Done: 1, Total: 1}
	jobs := [][]byte{
		rec(recSnapshot, map[string]any{"snapshot": map[string]any{"jobs": []RecoveredJob{done}}}),
		rec(recJobSubmit, map[string]any{"job": "j-2", "spec": string(sc.Canonical()), "submitted": sub}),
		rec(recJobSubmit, map[string]any{"job": "j-3", "spec": string(sc.Canonical()), "submitted": sub}),
		rec(recJobState, map[string]any{"job": "j-3", "state": StateRunning, "total": 1}),
		rec(recJobState, map[string]any{"job": "j-2", "state": StateDone, "report": "r2",
			"done": 1, "total": 1, "finished": sub}),
	}
	old := [][]byte{
		rec(recSnapshot, map[string]any{"snapshot": map[string]any{
			"jobs": []RecoveredJob{done},
			"tasks": []map[string]any{{"task": Task{ID: "j-1/t0", Plan: plans[0]},
				"state": StateLeased, "worker": "w7", "attempts": 1}},
			"max_worker": 7,
		}}),
		jobs[1],
		rec("task.add", map[string]any{"tasks": []Task{task}}),
		rec("task.claim", map[string]any{"task_id": task.ID, "worker": "w8", "attempts": 1}),
		rec("task.renew", map[string]any{"task_id": task.ID, "worker": "w8"}),
		rec("task.requeue", map[string]any{"task_id": task.ID, "attempts": 1}),
		rec("task.claim", map[string]any{"task_id": task.ID, "worker": "w9", "attempts": 2}),
		rec("task.done", map[string]any{"task_id": task.ID}),
		jobs[2],
		jobs[3],
		rec("task.add", map[string]any{"tasks": []Task{{ID: "j-3/t0", Plan: plans[0]}}}),
		rec("task.fail", map[string]any{"task_id": "j-3/t0", "error": "boom", "attempts": 3}),
		jobs[4],
	}
	replay := func(records [][]byte) (*wal.MemFS, *Recovered) {
		t.Helper()
		fs := wal.NewMemFS()
		jl, _ := openTestJournal(t, fs)
		for _, b := range records {
			if err := jl.log.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := jl.Close(); err != nil {
			t.Fatal(err)
		}
		jl, got, err := OpenJournal(wal.Options{Dir: "j", FS: fs})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer jl.Close()
		if n, _ := jl.Recovery(); n != len(records) {
			t.Fatalf("replayed %d records, want %d", n, len(records))
		}
		if err := jl.Snapshot(got); err != nil {
			t.Fatal(err)
		}
		return fs, got
	}
	fs, got := replay(old)
	if _, want := replay(jobs); !reflect.DeepEqual(got, want) {
		t.Fatalf("old log replayed to %+v\nwant the job-only log's %+v", got, want)
	}
	if len(got.Jobs) != 3 || got.Jobs[1].State != StateDone || got.Jobs[2].State != StateRunning {
		t.Fatalf("recovered jobs = %+v, want j-1 and j-2 done, j-3 running", got.Jobs)
	}
	exec := experiments.NewExec(1)
	defer exec.Close()
	m := NewManager(exec, nil, nil)
	defer m.Close()
	m.Restore(got)
	want := len(experiments.ProgressKeys(sc))
	if st, _ := m.Status("j-3"); st.State != StateQueued || st.Progress.Done != 0 || st.Progress.Total != want {
		t.Fatalf("restored running job = %s %+v, want queued 0/%d", st.State, st.Progress, want)
	}

	// The compacted log is one snapshot record naming jobs and nothing
	// else.
	var raw [][]byte
	l, err := wal.Open(wal.Options{Dir: "j", FS: fs}, func(b []byte) error {
		raw = append(raw, append([]byte(nil), b...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if len(raw) != 1 {
		t.Fatalf("compacted log holds %d records, want the snapshot alone", len(raw))
	}
	var snap struct {
		Kind     string                     `json:"kind"`
		Snapshot map[string]json.RawMessage `json:"snapshot"`
	}
	if err := json.Unmarshal(raw[0], &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Kind != recSnapshot || len(snap.Snapshot) != 1 || snap.Snapshot["jobs"] == nil {
		t.Fatalf("boot snapshot = %s, want one holding jobs only", raw[0])
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
