package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/runner"
)

// TestWorkerCountInvariance is the subsystem's central promise: the
// same experiment run serially and on a multi-worker pool produces
// identical results, because every job builds its system from scratch
// and results reassemble in submission order.
func TestWorkerCountInvariance(t *testing.T) {
	o := testOptions(0.001)
	o.Queries = []string{"Q6"}

	serial := NewExec(1)
	defer serial.Close()
	parallel := NewExec(3)
	defer parallel.Close()

	s, err := serial.RunLineSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	p, err := parallel.RunLineSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, p) {
		t.Fatalf("line sweep differs between 1 and 3 workers:\nserial:   %+v\nparallel: %+v", s, p)
	}

	// The warm-cache pairs carry state across a phase boundary inside
	// one job; they must be invariant too.
	sw, err := serial.RunWarmCache(o)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := parallel.RunWarmCache(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sw, pw) {
		t.Fatalf("warm-cache results differ between 1 and 3 workers:\nserial:   %+v\nparallel: %+v", sw, pw)
	}
}

// TestExecCacheSharing checks cross-figure deduplication: the Figure 6
// baseline and the Figure 13 base arm are the same measurement, so a
// second experiment referencing it must hit the cache.
func TestExecCacheSharing(t *testing.T) {
	o := testOptions(0.001)
	o.Queries = []string{"Q6"}
	e := NewExec(2)
	defer e.Close()

	var buf bytes.Buffer
	if err := e.Render(&buf, "fig6", o); err != nil {
		t.Fatal(err)
	}
	before := e.Pool().Stats()
	if before.CacheHits != 0 {
		t.Fatalf("unexpected early cache hits: %d", before.CacheHits)
	}
	buf.Reset()
	if err := e.Render(&buf, "fig13", o); err != nil {
		t.Fatal(err)
	}
	after := e.Pool().Stats()
	if after.CacheHits == 0 {
		t.Error("fig13 did not reuse the fig6 baseline measurement")
	}

	// Re-rendering resolves entirely from cache: no new completions.
	buf.Reset()
	if err := e.Render(&buf, "fig6", o); err != nil {
		t.Fatal(err)
	}
	if got := e.Pool().Stats(); got.Completed != after.Completed {
		t.Errorf("re-render simulated again: completed %d -> %d", after.Completed, got.Completed)
	}
}

// TestRenderValidation checks Render's name handling and that renders
// of the same experiment are reproducible text.
func TestRenderValidation(t *testing.T) {
	e := NewExec(1)
	defer e.Close()
	if err := e.Render(&bytes.Buffer{}, "fig99", testOptions(0.001)); err == nil {
		t.Error("unknown experiment rendered")
	}
	if IsKnown("fig99") || IsKnown("all") {
		t.Error("IsKnown accepts invalid names")
	}
	for _, name := range KnownExperiments {
		if !IsKnown(name) {
			t.Errorf("IsKnown rejects %q", name)
		}
	}

	o := testOptions(0.001)
	var a, b bytes.Buffer
	if err := e.Render(&a, "table1", o); err != nil {
		t.Fatal(err)
	}
	if err := e.Render(&b, "table1", o); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || a.String() != b.String() {
		t.Error("table1 render not reproducible")
	}
}

// TestSweepStartsCapturesFirst: on one worker, a multi-query line sweep
// starts every capture before any replay, since the ready queue runs
// jobs that others wait on first. Replays then end the sweep, where a
// wider pool can spread them over every worker.
func TestSweepStartsCapturesFirst(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real sweep")
	}
	o := testOptions(0.001)
	o.Queries = []string{"Q6", "Q12", "Q3"}
	e := NewExec(1)
	defer e.Close()
	var started []string
	cancel := e.Pool().Subscribe(func(ev runner.Event) {
		if ev.Kind == runner.JobStarted {
			started = append(started, ev.Name)
		}
	})
	_, err := e.RunLineSweep(o)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	captures, replays := 0, 0
	for _, name := range started {
		switch {
		case strings.HasPrefix(name, "capture/"):
			if replays > 0 {
				t.Fatalf("capture started after a replay: %v", started)
			}
			captures++
		case strings.HasPrefix(name, "replay/"):
			replays++
		}
	}
	if captures != len(o.Queries) || replays == 0 {
		t.Fatalf("started %d captures and %d replays, want %d and some: %v", captures, replays, len(o.Queries), started)
	}
}
