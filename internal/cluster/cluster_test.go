package cluster

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/scenario"
)

// coldSpec is the smallest real workload: one query, tiny scale.
func coldSpec() scenario.Scenario {
	sc := scenario.Default()
	sc.Machine.Processors = 2
	sc.Workload.Queries = []string{"Q6"}
	sc.Workload.Scale = 0.001
	return sc
}

// sweepSpec is a fig8-style sweep that decomposes into 2 captures + 8
// replays — enough points for a crash to land part-way through.
func sweepSpec() scenario.Scenario {
	sc := scenario.Default()
	sc.Machine.Processors = 2
	sc.Workload.Queries = []string{"Q3", "Q6"}
	sc.Workload.Scale = 0.002
	sc.Sweep = scenario.Sweep{Axis: scenario.AxisPrefetch, Points: []int{0, 1, 2, 4, 8}}
	return sc
}

// metricValue sums a family's samples on reg, optionally filtered by
// one label value.
func metricValue(t *testing.T, reg *metrics.Registry, family, label, value string) float64 {
	t.Helper()
	var sum float64
	for _, f := range reg.Snapshot() {
		if f.Name != family {
			continue
		}
		for _, s := range f.Samples {
			if label != "" && s.Labels[label] != value {
				continue
			}
			sum += s.Value
		}
	}
	return sum
}

// newManager is NewManager for tests that cannot fail to boot.
func newManager(t *testing.T, exec *experiments.Exec, reg *metrics.Registry, dir string) *Manager {
	t.Helper()
	m, err := NewManager(exec, reg, dir)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestManagerStandalone: the manager is an async front on
// RenderScenario — same report, plus progress and a terminal state
// event.
func TestManagerStandalone(t *testing.T) {
	if testing.Short() {
		t.Skip("renders a real scenario")
	}
	exec := experiments.NewExec(2)
	defer exec.Close()
	m := newManager(t, exec, nil, "")
	defer m.Close()

	sc := coldSpec()
	id, _, err := m.Submit(sc)
	if err != nil {
		t.Fatal(err)
	}
	replay, live, cancel, ok := m.Subscribe(id)
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer cancel()
	events := append([]Event(nil), replay...)
	for ev := range live {
		events = append(events, ev)
	}

	st, _ := m.Status(id)
	if st.State != StateDone {
		t.Fatalf("job state = %s (%s), want done", st.State, st.Error)
	}
	if st.Progress.Total != 1 || st.Progress.Done != 1 {
		t.Fatalf("progress = %+v, want 1/1", st.Progress)
	}
	var progress, state int
	for _, ev := range events {
		switch ev.Kind {
		case "progress":
			progress++
		case "state":
			state++
		}
	}
	if progress < 1 || state != 1 {
		t.Fatalf("events: %d progress, %d state; want >=1 and exactly 1", progress, state)
	}
	if last := events[len(events)-1]; last.Kind != "state" || last.State != StateDone {
		t.Fatalf("last event = %+v, want the done transition", last)
	}

	report, _, _, _, err := m.Report(id)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := exec.RenderScenario(&want, sc); err != nil {
		t.Fatal(err)
	}
	if report != want.String() {
		t.Fatalf("async report differs from direct render:\n--- async ---\n%s\n--- direct ---\n%s", report, want.String())
	}
}

// TestManagerOverlappingJobs: two jobs whose plans share keys render
// at once on one pool; each job's listener sees every settled key it
// planned, whichever render settled it, so both finish with all points
// counted.
func TestManagerOverlappingJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("renders real scenarios")
	}
	exec := experiments.NewExec(2)
	defer exec.Close()
	m := newManager(t, exec, nil, "")
	defer m.Close()

	a, b := coldSpec(), coldSpec()
	a.Sweep = scenario.Sweep{Axis: scenario.AxisPrefetch, Points: []int{0, 1, 2}}
	b.Sweep = scenario.Sweep{Axis: scenario.AxisPrefetch, Points: []int{1, 2, 4}}
	specs := []scenario.Scenario{a, b}
	var ids []string
	for _, sc := range specs {
		id, _, err := m.Submit(sc)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i, id := range ids {
		if !m.Wait(context.Background(), id) {
			t.Fatalf("job %s never finished", id)
		}
		st, _ := m.Status(id)
		want := len(experiments.ProgressKeys(specs[i]))
		if st.State != StateDone || st.Progress.Done != want || st.Progress.Total != want {
			t.Fatalf("job %s = %s %+v (%s), want done %d/%d", id, st.State, st.Progress, st.Error, want, want)
		}
	}
}
