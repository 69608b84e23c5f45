package experiments

import (
	"bytes"
	"io"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// streamSpec is the mixedstreams preset at test scale — the stream spec
// every test in this file runs.
func streamSpec() scenario.Scenario {
	sc := presetScenario("mixedstreams")
	sc.Workload.Scale = 0.002
	sc.Workload.Seed = 4242
	return sc
}

// TestStreamSpecMatchesDirectExecution proves the phases job adds
// nothing: the stream's one job on the runner produces exactly the
// reports of one System running the stream directly, at one worker and
// several.
func TestStreamSpecMatchesDirectExecution(t *testing.T) {
	sc := streamSpec()
	s, err := core.NewScenarioSystem(sc)
	if err != nil {
		t.Fatal(err)
	}
	want := s.RunStream(core.StreamPhasesFromSpec(sc.Workload.Phases))

	for _, workers := range []int{1, 4} {
		e := NewExec(workers)
		res, err := e.RunScenario(sc)
		e.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Stream) != len(want) {
			t.Fatalf("workers=%d: %d phase results for %d phases", workers, len(res.Stream), len(want))
		}
		for k, pr := range res.Stream {
			if !reflect.DeepEqual(pr.Report, want[k]) {
				t.Errorf("workers=%d phase %d: job report diverges from direct execution", workers, k)
			}
			if pr.Phase != k || pr.Flush != sc.Workload.Phases[k].Flush {
				t.Errorf("workers=%d phase %d: result carries phase=%d flush=%v", workers, k, pr.Phase, pr.Flush)
			}
		}
	}
}

// runStream runs the stream spec on a fresh metered Exec built from cfg
// and returns the phase results, the rendered report, the Exec's
// registry and the bytes the run allocated.
func runStream(t *testing.T, cfg runner.Config) ([]StreamPhaseResult, string, *metrics.Registry, uint64) {
	t.Helper()
	cfg.Metrics = metrics.New()
	e := NewExecConfig(cfg)
	defer e.Close()
	// Two collections empty the trace chunk pool (a sync.Pool), so every
	// measured run starts as a fresh process would, whatever ran before.
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := e.RunScenario(streamSpec())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := e.RenderScenario(&out, streamSpec()); err != nil { // answered from the result cache
		t.Fatal(err)
	}
	return res.Stream, out.String(), cfg.Metrics, after.TotalAlloc - before.TotalAlloc
}

// TestStreamTraceStoreServesPhases is the capture-per-stream positive
// path: the first process records the whole stream as one segmented
// blob, files it, and lets go of the recorded segments (their chunk
// buffers return to the pool the next recording draws from); a second
// process (fresh result cache, same -trace-dir) must derive every phase
// by replaying the blob's segments — no executor work — with identical
// reports and identical rendered bytes.
func TestStreamTraceStoreServesPhases(t *testing.T) {
	dir := t.TempDir()
	cfg := runner.Config{Workers: 2, TraceDir: dir}

	want, wantText, reg1, _ := runStream(t, cfg)
	if files, err := filepath.Glob(filepath.Join(dir, "*.trace")); err != nil || len(files) != 1 {
		t.Fatalf("want one spilled stream blob, got %v (err %v)", files, err)
	}
	if got := counterValue(t, reg1, "dssmem_trace_captures_total", nil); got != 1 {
		t.Errorf("recording run: dssmem_trace_captures_total = %v, want 1", got)
	}

	got, gotText, reg2, _ := runStream(t, cfg)
	if !reflect.DeepEqual(got, want) {
		t.Error("trace-store-served stream diverges from the executed stream")
	}
	if gotText != wantText {
		t.Error("trace-store-served report differs from the executed stream's report")
	}
	if n := counterValue(t, reg2, "dssmem_trace_replays_total", nil); int(n) != len(want) {
		t.Errorf("dssmem_trace_replays_total = %v, want one replay per phase (%d)", n, len(want))
	}
	if n := counterValue(t, reg2, "dssmem_trace_captures_total", nil); n != 0 {
		t.Errorf("served run recorded again: dssmem_trace_captures_total = %v", n)
	}
	if n := counterValue(t, reg2, "dssmem_cache_hits_total", map[string]string{"tier": "trace"}); n == 0 {
		t.Error("the stream's job did not consult the trace store")
	}
}

// TestPhaseWorkloadsAreOneJobEach: a stream is one job, and so is a
// warm pair — on a fresh Exec mixedstreams completes 1 job and fig12 6,
// one per pair.
func TestPhaseWorkloadsAreOneJobEach(t *testing.T) {
	if raceEnabled {
		t.Skip("job accounting, not concurrency: runs at native speed")
	}
	for _, tc := range []struct {
		name string
		want int64
	}{{"mixedstreams", 1}, {"fig12", 6}} {
		e := NewExec(2)
		err := e.Render(io.Discard, tc.name, testOptions(0.001))
		got := e.Pool().Stats().Completed
		e.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s completed %d jobs, want %d", tc.name, got, tc.want)
		}
	}
}

// TestFig12TraceStoreServesPairs: warm pairs take the same trace-store
// road as streams. A second process over the same -trace-dir renders
// fig12's bytes by replay alone — no capture, one replay per phase (2
// cold pairs x 1 + 4 warmed pairs x 2 = 10) — and an explicit phase
// spec equal to a pair's lowering is that pair's cache entry.
func TestFig12TraceStoreServesPairs(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-pinning replay gate: runs at native speed")
	}
	dir := t.TempDir()
	o := goldenOptions()
	render := func() (string, *Exec, *metrics.Registry) {
		t.Helper()
		reg := metrics.New()
		e := NewExecConfig(runner.Config{Workers: 2, TraceDir: dir, Metrics: reg})
		var out bytes.Buffer
		if err := e.Render(&out, "fig12", o); err != nil {
			t.Fatal(err)
		}
		return out.String(), e, reg
	}

	want, e1, reg1 := render()
	if got := counterValue(t, reg1, "dssmem_trace_captures_total", nil); got != 6 {
		t.Errorf("recording run: dssmem_trace_captures_total = %v, want 6 (one per pair)", got)
	}
	explicit := applyOptions(presetScenario("fig12"), o)
	explicit.Name = "q3-after-q12"
	explicit.Workload.Queries = nil
	explicit.Workload.Phases = scenario.LegacyPhases("Q3", "Q12", 4)
	before := e1.Pool().Stats()
	if _, err := e1.RunScenario(explicit); err != nil {
		t.Fatal(err)
	}
	after := e1.Pool().Stats()
	if after.CacheHits != before.CacheHits+1 || after.Completed != before.Completed {
		t.Errorf("explicit phase spec of a fig12 pair: hits %d -> %d, completed %d -> %d; want one hit, no run",
			before.CacheHits, after.CacheHits, before.Completed, after.Completed)
	}
	e1.Close()

	got, e2, reg2 := render()
	defer e2.Close()
	if got != want {
		t.Error("trace-store-served fig12 differs from the executed render")
	}
	if n := counterValue(t, reg2, "dssmem_trace_captures_total", nil); n != 0 {
		t.Errorf("served run recorded again: dssmem_trace_captures_total = %v", n)
	}
	if n := counterValue(t, reg2, "dssmem_trace_replays_total", nil); n != 10 {
		t.Errorf("dssmem_trace_replays_total = %v, want 10 (one per phase)", n)
	}
}

// TestStreamWithoutStoreRecordsNothing is the pay-per-use contract: with
// no trace store nothing could read a recording back, so the stream runs
// unrecorded — same reports, no capture counted, no blob bytes, and well
// under half the allocation of the same run recorded for a store.
func TestStreamWithoutStoreRecordsNothing(t *testing.T) {
	sc := streamSpec()
	s, err := core.NewScenarioSystem(sc)
	if err != nil {
		t.Fatal(err)
	}
	want := s.RunStream(core.StreamPhasesFromSpec(sc.Workload.Phases))
	sameReports := func(name string, res []StreamPhaseResult) {
		t.Helper()
		if len(res) != len(want) {
			t.Fatalf("%s: %d phase results for %d phases", name, len(res), len(want))
		}
		for k := range res {
			if !reflect.DeepEqual(res[k].Report, want[k]) {
				t.Errorf("%s: phase %d diverges from direct execution", name, k)
			}
		}
	}

	bare, bareText, reg, bareAlloc := runStream(t, runner.Config{Workers: 1})
	sameReports("no store", bare)
	for _, name := range []string{"dssmem_trace_captures_total", "dssmem_trace_recorded_bytes"} {
		if got := counterValue(t, reg, name, nil); got != 0 {
			t.Errorf("no store: %s = %v, want 0", name, got)
		}
	}

	dir := t.TempDir()
	stored, storedText, reg, storedAlloc := runStream(t, runner.Config{Workers: 1, TraceDir: dir})
	sameReports("with store", stored)
	if storedText != bareText {
		t.Error("recorded and unrecorded runs render different reports")
	}
	if got := counterValue(t, reg, "dssmem_trace_captures_total", nil); got != 1 {
		t.Errorf("with store: dssmem_trace_captures_total = %v, want 1", got)
	}
	if got := counterValue(t, reg, "dssmem_trace_recorded_bytes", nil); got <= 0 {
		t.Errorf("with store: dssmem_trace_recorded_bytes = %v, want > 0", got)
	}
	t.Logf("allocated: %d bytes unrecorded, %d recorded", bareAlloc, storedAlloc)
	if bareAlloc >= storedAlloc/2 {
		t.Errorf("unrecorded run allocated %d bytes, want under half the recorded run's %d", bareAlloc, storedAlloc)
	}
}
