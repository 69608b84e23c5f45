package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/runner"
)

// TestStreamedReplayMatchesExecution runs a fig8-shaped sweep with every
// capture spilled to a trace directory and requires four routes to the
// same points to agree byte for byte: the capturing run, a re-run that
// has no cached result and must stream every replay from the trace
// store, a single-worker run, and fresh per-point serial execution.
func TestStreamedReplayMatchesExecution(t *testing.T) {
	dir := t.TempDir()
	o := replayOptions("Q6")

	sweep := func(workers int) ([]SweepPoint, string) {
		t.Helper()
		e := NewExecConfig(runner.Config{Workers: workers, TraceDir: dir})
		defer e.Close()
		pts, err := e.RunLineSweep(o)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Render(&buf, "fig8", o); err != nil {
			t.Fatal(err)
		}
		return pts, buf.String()
	}

	// First run captures (and spills to dir); the later runs have no
	// inline blob and must stream every replay from the trace store.
	captured, captureBytes := sweep(4)
	streamed, streamBytes := sweep(4)
	if streamBytes != captureBytes {
		t.Error("streamed rerun rendered different fig8 bytes than the capturing run")
	}
	if !reflect.DeepEqual(streamed, captured) {
		t.Error("streamed rerun diverges from the capturing run")
	}

	single, singleBytes := sweep(1)
	if singleBytes != captureBytes {
		t.Error("single-worker fig8 render differs from the 4-worker render")
	}
	if !reflect.DeepEqual(single, captured) {
		t.Errorf("single-worker sweep diverges from the 4-worker sweep\n4 workers: %+v\n1 worker:  %+v",
			captured, single)
	}

	if raceEnabled {
		t.Log("skipping serial-execution leg under race; replay-path equivalence checked above")
		return
	}
	executed := make([]SweepPoint, len(LineSizes))
	for i, ls := range LineSizes {
		executed[i] = executeSweepPoint(t, o, machine.Baseline().WithLineSize(ls), "Q6", ls)
	}
	if !reflect.DeepEqual(captured, executed) {
		t.Errorf("streamed sweep diverges from serial execution\nreplay:  %+v\nexecute: %+v",
			captured, executed)
	}
}

// TestDamagedBlobFallbackMetrics pins the chunk-granular fallback's
// accounting: a spilled trace blob that opens but fails to decode still
// counts as a trace-store hit (bytes were served), the job falls back
// to cold execution with an identical report, and the fresh capture is
// re-spilled (a trace-store write) and counted by the existing
// dssmem_trace_* metric families.
func TestDamagedBlobFallbackMetrics(t *testing.T) {
	dir := t.TempDir()
	o := replayOptions("Q12")
	mcfg := machine.Baseline()

	e1 := NewExecConfig(runner.Config{Workers: 1, TraceDir: dir})
	want, err := e1.RunCold(o, mcfg)
	e1.Close()
	if err != nil {
		t.Fatal(err)
	}

	files, err := filepath.Glob(filepath.Join(dir, "*.trace"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("expected one spilled trace blob, found %v", files)
	}
	blob, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x40
	if err := os.WriteFile(files[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := metrics.New()
	e2 := NewExecConfig(runner.Config{Workers: 1, TraceDir: dir, Metrics: reg})
	defer e2.Close()
	got, err := e2.RunCold(o, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("damaged-blob fallback produced a different report than the original capture")
	}

	st := e2.Pool().Stats()
	if st.TraceHits < 1 {
		t.Errorf("damaged blob should still count as a trace-store hit (it opened): %+v", st)
	}
	if st.TraceWrites < 1 {
		t.Errorf("fallback execution should re-spill the fresh capture: %+v", st)
	}
	if got := counterValue(t, reg, "dssmem_trace_captures_total", nil); got < 1 {
		t.Errorf("dssmem_trace_captures_total = %v, want >= 1 after fallback execution", got)
	}
	if got := counterValue(t, reg, "dssmem_cache_hits_total", map[string]string{"tier": "trace"}); got < 1 {
		t.Errorf("dssmem_cache_hits_total{tier=trace} = %v, want >= 1 for the damaged blob", got)
	}
}

// counterValue digs one sample out of a registry snapshot by family
// name and exact label set.
func counterValue(t *testing.T, r *metrics.Registry, family string, labels map[string]string) float64 {
	t.Helper()
	for _, f := range r.Snapshot() {
		if f.Name != family {
			continue
		}
		for _, s := range f.Samples {
			if len(s.Labels) != len(labels) {
				continue
			}
			match := true
			for k, v := range labels {
				if s.Labels[k] != v {
					match = false
				}
			}
			if match {
				return s.Value
			}
		}
	}
	t.Fatalf("metric %s%v not found in snapshot", family, labels)
	return 0
}
