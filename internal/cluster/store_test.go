package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// finish waits for job id and fails the test unless it ends done.
func finish(t *testing.T, m *Manager, id string) JobStatus {
	t.Helper()
	if !m.Wait(context.Background(), id) {
		t.Fatalf("job %s never finished", id)
	}
	st, _ := m.Status(id)
	if st.State != StateDone {
		t.Fatalf("job %s = %s (%s), want done", id, st.State, st.Error)
	}
	return st
}

// dirState lists a directory's files with their sizes and mtimes: any
// write into it changes the listing.
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(ents))
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = fmt.Sprintf("%d bytes at %s", info.Size(), info.ModTime().Format(time.RFC3339Nano))
	}
	return out
}

// TestSpecBytesRoundTrip: a stored spec decodes and validates back to
// the spec it was written from, name included, for every preset and a
// stream spec, so a restarted daemon re-queues each under the id it
// was accepted with.
func TestSpecBytesRoundTrip(t *testing.T) {
	specs := []scenario.Scenario{coldSpec(), sweepSpec()}
	for _, p := range scenario.Presets() {
		specs = append(specs, p.Scenarios...)
	}
	stream := coldSpec()
	stream.Name = `a "quoted" stream`
	stream.Workload.Queries = nil
	stream.Workload.Phases = []scenario.Phase{{Flush: true, Runs: [][]scenario.PhaseRun{{{Query: "Q6"}}, nil}}}
	specs = append(specs, stream)
	for _, sc := range specs {
		b := specBytes(&sc)
		back, err := scenario.Decode(b)
		if err == nil {
			err = back.Validate()
		}
		if err != nil {
			t.Fatalf("%s: stored spec %s does not load: %v", sc.Name, b, err)
		}
		if back.Name != sc.Name || back.Hash() != sc.Hash() || jobID(specBytes(back)) != jobID(b) {
			t.Fatalf("%s: stored spec %s loads as %q %s", sc.Name, b, back.Name, back.Hash())
		}
	}
}

// TestSpecStoreWarmResubmission: resubmitting a done spec returns its
// job — same id, already done — with nothing run and nothing written.
func TestSpecStoreWarmResubmission(t *testing.T) {
	if testing.Short() {
		t.Skip("renders a real scenario")
	}
	reg := metrics.New()
	exec := experiments.NewExecConfig(runner.Config{Workers: 2, Metrics: reg})
	defer exec.Close()
	dir := t.TempDir()
	m := newManager(t, exec, reg, dir)
	defer m.Close()

	id, _, err := m.Submit(coldSpec())
	if err != nil {
		t.Fatal(err)
	}
	finish(t, m, id)
	files := dirState(t, dir)
	if len(files) != 1 {
		t.Fatalf("spec dir holds %v, want one spec", files)
	}
	submitted := metricValue(t, reg, "dssmem_runner_jobs_submitted_total", "", "")
	for i := 0; i < 20; i++ {
		again, state, err := m.Submit(coldSpec())
		if err != nil {
			t.Fatal(err)
		}
		if again != id || state != StateDone {
			t.Fatalf("resubmission %d got job %s, %s; want %s, done", i, again, state, id)
		}
	}
	if got := metricValue(t, reg, "dssmem_runner_jobs_submitted_total", "", ""); got != submitted {
		t.Errorf("20 resubmissions submitted %v pool jobs, want 0", got-submitted)
	}
	if after := dirState(t, dir); len(after) != 1 || after[id+specExt] != files[id+specExt] {
		t.Errorf("20 resubmissions changed the spec dir: %v -> %v", files, after)
	}
	if c := m.Counts(); c[StateDone] != 1 {
		t.Errorf("job counts = %v, want one done job", c)
	}
}

// TestSpecStoreConcurrentResubmission: eight clients submitting one
// spec at once get one id, and the spec renders once.
func TestSpecStoreConcurrentResubmission(t *testing.T) {
	if testing.Short() {
		t.Skip("renders a real scenario")
	}
	reg := metrics.New()
	exec := experiments.NewExecConfig(runner.Config{Workers: 2, Metrics: reg})
	defer exec.Close()
	m := newManager(t, exec, reg, t.TempDir())
	defer m.Close()

	const clients = 8
	ids := make([]string, clients)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			id, _, err := m.Submit(coldSpec())
			if err != nil {
				t.Error(err)
			}
			ids[i] = id
		}()
	}
	close(start)
	wg.Wait()
	for _, id := range ids {
		if id != ids[0] {
			t.Fatalf("concurrent submissions got ids %v, want one", ids)
		}
	}
	finish(t, m, ids[0])
	want := float64(len(experiments.ProgressKeys(coldSpec())))
	if got := metricValue(t, reg, "dssmem_runner_jobs_submitted_total", "", ""); got != want {
		t.Errorf("%d concurrent submissions submitted %v pool jobs, want one render's %v", clients, got, want)
	}
	if c := m.Counts(); c[StateDone] != 1 {
		t.Errorf("job counts = %v, want one done job", c)
	}
}

// TestSpecStoreNameInID: the report header prints the spec's name, so
// two specs that differ only in name are two jobs, each reporting its
// own name.
func TestSpecStoreNameInID(t *testing.T) {
	if testing.Short() {
		t.Skip("renders a real scenario")
	}
	exec := experiments.NewExec(2)
	defer exec.Close()
	m := newManager(t, exec, nil, t.TempDir())
	defer m.Close()

	ids := map[string]string{}
	for _, name := range []string{"alpha", "beta"} {
		sc := coldSpec()
		sc.Name = name
		id, _, err := m.Submit(sc)
		if err != nil {
			t.Fatal(err)
		}
		ids[name] = id
	}
	if ids["alpha"] == ids["beta"] {
		t.Fatalf("specs differing only in name share job %s", ids["alpha"])
	}
	for name, id := range ids {
		finish(t, m, id)
		report, _, _, _, err := m.Report(id)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(report, "Scenario "+name+" (") {
			t.Errorf("job %s report header = %q, want %s's", id, strings.SplitN(report, "\n", 2)[0], name)
		}
	}
}

// TestSpecStoreRestart: a done job comes back after a restart under the
// same id, re-rendered from the result tier to the same bytes without
// simulating, and resubmitting its spec returns it.
func TestSpecStoreRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("renders a real scenario")
	}
	state := t.TempDir()
	d := bootDaemon(t, state)
	id, _, err := d.m.Submit(coldSpec())
	if err != nil {
		t.Fatal(err)
	}
	before := finish(t, d.m, id)
	report, _, _, _, err := d.m.Report(id)
	if err != nil {
		t.Fatal(err)
	}
	d.shutdown()

	d = bootDaemon(t, state)
	defer d.shutdown()
	after := finish(t, d.m, id)
	again, _, _, _, err := d.m.Report(id)
	if err != nil {
		t.Fatal(err)
	}
	if again != report {
		t.Fatalf("report after restart differs:\n--- after ---\n%s\n--- before ---\n%s", again, report)
	}
	if after.Progress != before.Progress {
		t.Errorf("progress after restart = %+v, before %+v", after.Progress, before.Progress)
	}
	if info, err := os.Stat(filepath.Join(state, "spec", id+specExt)); err != nil || !after.Submitted.Equal(info.ModTime()) {
		t.Errorf("submitted after restart = %v, want the spec file's mtime (%v)", after.Submitted, err)
	}
	if n := metricValue(t, d.reg, "dssmem_runner_jobs_completed_total", "", ""); n != 0 {
		t.Errorf("restart simulated %v jobs, want every point from the result tier", n)
	}
	if resub, _, err := d.m.Submit(coldSpec()); err != nil || resub != id {
		t.Errorf("resubmission after restart = %s, %v; want %s", resub, err, id)
	}
}

// TestSpecStoreDamagedSpec: a stored spec that does not hash to its
// name, or no longer decodes, comes back as a failed job under its id
// instead of being dropped, and the store's temp files are ignored.
// Submitting the intact spec re-runs the failed job under the same id.
func TestSpecStoreDamagedSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("renders a real scenario")
	}
	dir := t.TempDir()
	sc := coldSpec()
	torn := jobID(specBytes(&sc))
	stale := []byte(`{"workload":{"queries":["Q6"],"retired_field":1}}`)
	for name, b := range map[string][]byte{
		torn + specExt:           specBytes(&sc)[:20],
		jobID(stale) + specExt:   stale,
		"put-123456":             []byte("half a spec"),
		"not-a-spec.json.backup": []byte("{}"),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	exec := experiments.NewExec(2)
	defer exec.Close()
	m := newManager(t, exec, nil, dir)
	defer m.Close()

	if c := m.Counts(); c[StateFailed] != 2 || c[StateQueued]+c[StateRunning]+c[StateDone] != 0 {
		t.Fatalf("job counts = %v, want the two damaged specs failed", c)
	}
	for id, why := range map[string]string{torn: "does not hash", jobID(stale): "no longer decodes"} {
		st, ok := m.Status(id)
		if !ok || st.State != StateFailed || !strings.Contains(st.Error, why) {
			t.Errorf("job %s = %+v (known %v), want failed: %s", id, st, ok, why)
		}
		replay, _, cancel, _ := m.Subscribe(id)
		cancel()
		if len(replay) != 1 || replay[0].State != StateFailed {
			t.Errorf("job %s events = %+v, want one failed state event", id, replay)
		}
	}

	id, _, err := m.Submit(sc)
	if err != nil || id != torn {
		t.Fatalf("resubmitting the intact spec = %s, %v; want job %s", id, err, torn)
	}
	finish(t, m, id)
	if c := m.Counts(); c[StateFailed] != 1 || c[StateDone] != 1 {
		t.Errorf("job counts = %v, want one failed and the re-run done", c)
	}
	if b, err := os.ReadFile(filepath.Join(dir, torn+specExt)); err != nil || jobID(b) != torn {
		t.Errorf("re-run did not restore the stored spec (%v)", err)
	}
}
