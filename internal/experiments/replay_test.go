package experiments

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// The tests below are the experiment-level half of the
// record-once/replay-many contract (internal/core/trace_test.go is the
// engine-level half): every sweep the replay engine serves must return,
// field for field, the points that per-configuration fresh execution
// returns — so the rendered figures are byte-identical by construction.

func replayOptions(q string) Options {
	o := Defaults()
	o.Scale = 0.001
	o.Queries = []string{q}
	return o
}

// referenceSystem builds the equivalence tests' reference the pre-spec
// way — core.DefaultConfig with the options' scale and seed, at mcfg —
// so it shares no construction code with the jobs it is compared to.
func referenceSystem(o Options, mcfg machine.Config) (*core.System, error) {
	cfg := core.DefaultConfig()
	cfg.DB.ScaleFactor = o.Scale
	cfg.DB.Seed = o.Seed
	cfg.Machine = mcfg
	return core.NewSystem(cfg)
}

// executeSweepPoint measures one sweep point the pre-replay way: a
// fresh system built at the swept configuration, one cold execution.
func executeSweepPoint(t *testing.T, o Options, mcfg machine.Config, q string, prm int) SweepPoint {
	t.Helper()
	s, err := referenceSystem(o, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	return sweepPointOf(s.RunCold(q), q, prm)
}

// sweepPointOf projects a cold report onto the sweep's point shape.
func sweepPointOf(rep *core.Report, q string, prm int) SweepPoint {
	return SweepPoint{
		Query:  q,
		Param:  prm,
		L1Miss: rep.Machine.L1Misses.ByGroup(),
		L2Miss: rep.Machine.L2Misses.ByGroup(),
		Bd:     rep.Total(),
		Clock:  rep.MaxClock(),
	}
}

// TestSweepReplayEquivalence checks every (query, sweep) pair the paper
// reports: the replay-driven line sweep (fig8) and cache sweep (fig10)
// must equal fresh per-point execution exactly.
func TestSweepReplayEquivalence(t *testing.T) {
	if raceEnabled {
		t.Skip("full sweep equivalence runs at native speed; determinism_test.go covers race mode")
	}
	sweeps := []struct {
		name   string
		params []int
		mk     func(machine.Config, int) machine.Config
		run    func(*Exec, Options) ([]SweepPoint, error)
	}{
		{"fig8", LineSizes,
			func(c machine.Config, ls int) machine.Config { return c.WithLineSize(ls) },
			(*Exec).RunLineSweep},
		{"fig10", CacheSizes,
			func(c machine.Config, kb int) machine.Config { return c.WithCacheSizes(kb*1024/32, kb*1024) },
			(*Exec).RunCacheSweep},
	}
	for _, q := range []string{"Q3", "Q6", "Q12"} {
		for _, sw := range sweeps {
			t.Run(q+"/"+sw.name, func(t *testing.T) {
				o := replayOptions(q)
				e := NewExec(4)
				defer e.Close()
				replayed, err := sw.run(e, o)
				if err != nil {
					t.Fatal(err)
				}
				executed := make([]SweepPoint, len(sw.params))
				for i, prm := range sw.params {
					executed[i] = executeSweepPoint(t, o, sw.mk(machine.Baseline(), prm), q, prm)
				}
				if !reflect.DeepEqual(replayed, executed) {
					t.Errorf("%s %s: replayed sweep diverges from per-point execution\nreplay:  %+v\nexecute: %+v",
						q, sw.name, replayed, executed)
				}
			})
		}
	}
}

// TestAblationReplayEquivalence checks the shared-system sweeps: the
// prefetch-degree ablation replays its steady-state recording for every
// point past the second, and must match a sweep that executes every
// point on an identically shared system.
func TestAblationReplayEquivalence(t *testing.T) {
	if raceEnabled {
		t.Skip("full ablation equivalence runs at native speed; determinism_test.go covers race mode")
	}
	for _, q := range []string{"Q3", "Q6", "Q12"} {
		t.Run(q, func(t *testing.T) {
			o := replayOptions(q)
			e := NewExec(4)
			defer e.Close()
			replayed, err := e.AblatePrefetchDegree(o, q)
			if err != nil {
				t.Fatal(err)
			}

			cfgs := []struct {
				name string
				cfg  machine.Config
			}{{"off", machine.Baseline()}}
			for _, d := range PrefetchDegrees {
				cfg := machine.Baseline()
				cfg.PrefetchData = true
				cfg.PrefetchDegree = d
				cfgs = append(cfgs, struct {
					name string
					cfg  machine.Config
				}{name: "deg" + itoa(d), cfg: cfg})
			}
			s, err := referenceSystem(o, cfgs[0].cfg)
			if err != nil {
				t.Fatal(err)
			}
			executed := make([]AblationPoint, 0, len(cfgs))
			for _, cc := range cfgs {
				if err := s.ReplaceMachine(cc.cfg); err != nil {
					t.Fatal(err)
				}
				rep := s.RunCold(q)
				executed = append(executed, AblationPoint{
					Name: cc.name, Query: q,
					Bd: rep.Total(), Mach: rep.Machine, Clock: rep.MaxClock(),
				})
			}
			if !reflect.DeepEqual(replayed, executed) {
				t.Errorf("%s: replayed ablation diverges from shared-system execution\nreplay:  %+v\nexecute: %+v",
					q, replayed, executed)
			}
		})
	}
}

// TestCaptureSurvivesDamagedTraceFile covers the -trace-dir error
// paths: a truncated or bit-flipped spilled blob must fail decoding
// loudly at the format layer, and the capture job must fall back to
// execution (producing the identical report) instead of propagating the
// damage.
func TestCaptureSurvivesDamagedTraceFile(t *testing.T) {
	dir := t.TempDir()
	o := replayOptions("Q6")
	mcfg := machine.Baseline()

	runOnce := func() []QueryResult {
		t.Helper()
		e := NewExecConfig(runner.Config{Workers: 2, TraceDir: dir})
		defer e.Close()
		res, err := e.RunCold(o, mcfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	want := runOnce() // capture executes and spills its blob
	files, err := filepath.Glob(filepath.Join(dir, "*.trace"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want one spilled blob, got %v (err %v)", files, err)
	}
	blob, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}

	if _, err := trace.Unmarshal(blob[:len(blob)/2]); err == nil {
		t.Error("Unmarshal accepted a truncated blob")
	}
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := trace.Unmarshal(flipped); err == nil {
		t.Error("Unmarshal accepted a corrupted blob")
	}

	damage := []struct {
		name string
		mut  func() error
	}{
		{"truncated", func() error { return os.WriteFile(files[0], blob[:len(blob)/2], 0o644) }},
		{"corrupted", func() error { return os.WriteFile(files[0], flipped, 0o644) }},
	}
	for _, d := range damage {
		if err := d.mut(); err != nil {
			t.Fatal(err)
		}
		if got := runOnce(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s blob: fallback execution diverged from the original report", d.name)
		}
		// The fallback execution re-spills an intact blob; prove it by
		// replaying it at the capture's own configuration.
		fixed, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Unmarshal(fixed)
		if err != nil {
			t.Fatalf("%s blob: store left a damaged blob behind: %v", d.name, err)
		}
		rep, err := core.ReplayTrace(tr, mcfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, want[0].Report) {
			t.Errorf("%s blob: re-spilled blob replays a different report", d.name)
		}
	}
}

// cachedCapture returns the capture result the pool's result cache holds
// for capSpec, through a probe job under the capture's identity that
// fails if it runs: the memory cache hands every hit the stored value
// itself, so the probe sees exactly what replay jobs are handed.
func cachedCapture(t *testing.T, e *Exec, capSpec scenario.Scenario) *CaptureResult {
	t.Helper()
	probe := &runner.Job{Name: "probe", Mode: "capture", Spec: capSpec,
		Body: func(*runner.Ctx) (interface{}, error) { return nil, errors.New("capture not cached") }}
	res, err := e.pool.RunAll(context.Background(), []*runner.Job{probe})
	if err != nil {
		t.Fatal(err)
	}
	return res[0].(*CaptureResult)
}

// TestSweepReplaysReadRecordingInPlace pins the one copy: with no trace
// store and no disk tier a recording never leaves the process, so a
// sweep's replay jobs read the capture's recorded chunks in place — no
// blob is encoded, none is held in the result cache and no blob byte is
// streamed — and several of them read one recording at once. The
// render must be byte-identical to the same sweep replayed from a trace
// store, where the replays do stream their blobs.
func TestSweepReplaysReadRecordingInPlace(t *testing.T) {
	o := replayOptions("Q6")
	o.Queries = []string{"Q6", "Q12"}
	sc := applyOptions(presetScenario("fig8"), o)
	sc.Workload.Queries = o.Queries
	var captures, replays float64
	for _, p := range planPoints(sc) {
		if p.IsCapture {
			captures++
		} else {
			replays++
		}
	}

	render := func(cfg runner.Config) (string, *metrics.Registry, float64, *Exec) {
		t.Helper()
		cfg.Workers, cfg.Metrics = 4, metrics.New()
		e := NewExecConfig(cfg)
		t.Cleanup(e.Close)
		streamed := counterValue(t, cfg.Metrics, "dssmem_trace_streamed_bytes", nil)
		var buf bytes.Buffer
		if err := e.Render(&buf, "fig8", o); err != nil {
			t.Fatal(err)
		}
		return buf.String(), cfg.Metrics, counterValue(t, cfg.Metrics, "dssmem_trace_streamed_bytes", nil) - streamed, e
	}

	got, reg, streamed, e := render(runner.Config{})
	if streamed != 0 {
		t.Errorf("in-process sweep streamed %v blob bytes, want 0", streamed)
	}
	if n := counterValue(t, reg, "dssmem_trace_captures_total", nil); n != captures || captures != 2 {
		t.Errorf("captures = %v, want %v (one per query)", n, captures)
	}
	if n := counterValue(t, reg, "dssmem_trace_replays_total", nil); n != replays {
		t.Errorf("replays = %v, want one per replay job (%v)", n, replays)
	}
	for _, q := range o.Queries {
		if cr := cachedCapture(t, e, pointSpec(sc, sc.Machine, q)); len(cr.Blob) != 0 {
			t.Errorf("%s: cached capture holds %d blob bytes, want none", q, len(cr.Blob))
		}
	}

	want, _, streamed, _ := render(runner.Config{TraceDir: t.TempDir()})
	if streamed == 0 {
		t.Error("sweep over a trace store streamed no blob bytes")
	}
	if got != want {
		t.Error("in-place replays render different fig8 bytes than replays from the trace store")
	}
}

// TestCachedRecordingKeepsItsChunks guards the recording a cached
// capture holds: its chunk buffers must never return to the trace chunk
// pool, or the next recording would draw them and overwrite it. Q6 is
// captured, a Q12 capture then records from the pool, and a replay of
// Q6 at a new point must still equal execution.
func TestCachedRecordingKeepsItsChunks(t *testing.T) {
	const ls = 128
	// One P and no collection keep the chunk pool (a sync.Pool) one
	// local cache that nothing empties, so the Q12 recording draws
	// whatever the Q6 capture might have put back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	o := replayOptions("Q6")
	reg := metrics.New()
	e := NewExecConfig(runner.Config{Workers: 1, Metrics: reg})
	defer e.Close()
	sc := applyOptions(scenario.Default(), o)
	base := scenario.FromMachineConfig(machine.Baseline())
	for _, q := range []string{"Q6", "Q12"} {
		capSpec := pointSpec(sc, base, q)
		if _, err := e.runPlans([]PointPlan{{Query: q, Point: capSpec, Capture: capSpec, IsCapture: true}}); err != nil {
			t.Fatal(err)
		}
	}
	mcfg := machine.Baseline().WithLineSize(ls)
	replay := PointPlan{Query: "Q6", Point: pointSpec(sc, scenario.FromMachineConfig(mcfg), "Q6"), Capture: pointSpec(sc, base, "Q6")}
	reps, err := e.runPlans([]PointPlan{replay})
	if err != nil {
		t.Fatal(err)
	}
	// A recording overwritten by Q12 fails to decode and falls back to
	// execution, which the replay counter exposes.
	if n := counterValue(t, reg, "dssmem_trace_replays_total", nil); n != 1 {
		t.Errorf("replays = %v, want 1: the cached recording did not replay", n)
	}
	if got, want := sweepPointOf(reps[0], "Q6", ls), executeSweepPoint(t, o, mcfg, "Q6", ls); !reflect.DeepEqual(got, want) {
		t.Errorf("replay of the cached recording diverges from execution\nreplay:  %+v\nexecute: %+v", got, want)
	}
}

// persistedCapture runs the Q6 baseline capture on a -cache-dir-only
// Exec over dir and returns the capture's spec and its persisted entry.
func persistedCapture(t *testing.T, dir string, o Options) (scenario.Scenario, string) {
	t.Helper()
	e := NewExecConfig(runner.Config{Workers: 1, CacheDir: dir})
	defer e.Close()
	capSpec := pointSpec(applyOptions(scenario.Default(), o), scenario.FromMachineConfig(machine.Baseline()), "Q6")
	if _, err := e.runPlans([]PointPlan{{Query: "Q6", Point: capSpec, Capture: capSpec, IsCapture: true}}); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, (&runner.Job{Mode: "capture", Spec: capSpec}).Key()+".gob")
	if _, err := os.Stat(file); err != nil {
		t.Fatalf("capture not persisted: %v", err)
	}
	return capSpec, file
}

// replayFrom runs one Q6 replay at line size ls on a fresh -cache-dir-only
// Exec over dir (a later process) and returns its report and metrics.
func replayFrom(t *testing.T, dir string, o Options, capSpec scenario.Scenario, ls int) (*core.Report, *metrics.Registry) {
	t.Helper()
	reg := metrics.New()
	e := NewExecConfig(runner.Config{Workers: 1, CacheDir: dir, Metrics: reg})
	defer e.Close()
	mcfg := machine.Baseline().WithLineSize(ls)
	replay := PointPlan{Query: "Q6", Point: pointSpec(capSpec, scenario.FromMachineConfig(mcfg), "Q6"), Capture: capSpec}
	reps, err := e.runPlans([]PointPlan{replay})
	if err != nil {
		t.Fatalf("replay from the disk tier failed the sweep: %v", err)
	}
	return reps[0], reg
}

// TestDiskTierServesReplayAcrossProcesses covers -cache-dir without a
// trace store: the persisted capture carries its blob, so a later
// process asking for a sweep point the first never ran replays it from
// that blob — no capture executed, one replay, the executed report.
func TestDiskTierServesReplayAcrossProcesses(t *testing.T) {
	const ls = 128
	dir := t.TempDir()
	o := replayOptions("Q6")
	capSpec, _ := persistedCapture(t, dir, o)
	rep, reg := replayFrom(t, dir, o, capSpec, ls)
	if n := counterValue(t, reg, "dssmem_trace_captures_total", nil); n != 0 {
		t.Errorf("later process executed %v captures, want 0", n)
	}
	if n := counterValue(t, reg, "dssmem_trace_replays_total", nil); n != 1 {
		t.Errorf("later process counted %v replays, want 1", n)
	}
	mcfg := machine.Baseline().WithLineSize(ls)
	if got, want := sweepPointOf(rep, "Q6", ls), executeSweepPoint(t, o, mcfg, "Q6", ls); !reflect.DeepEqual(got, want) {
		t.Errorf("disk-tier replay diverges from execution\nreplay:  %+v\nexecute: %+v", got, want)
	}
}

// TestReplaySurvivesDamagedPersistedBlob is the damaged-blob contract
// for the one place a blob still rides inside a result: a capture
// persisted by -cache-dir without a trace store. A later process whose
// replay finds that blob damaged must fall back to execution exactly
// as it does for a damaged spilled blob, instead of failing the sweep.
func TestReplaySurvivesDamagedPersistedBlob(t *testing.T) {
	const ls = 128
	dir := t.TempDir()
	o := replayOptions("Q6")
	capSpec, file := persistedCapture(t, dir, o)

	// Damage the blob inside the persisted entry, leaving the entry
	// itself well-formed: gob matches the wrapper struct by field name.
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var entry struct{ V interface{} }
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&entry); err != nil {
		t.Fatal(err)
	}
	cr := entry.V.(*CaptureResult)
	if len(cr.Blob) == 0 {
		t.Fatal("capture persisted without a trace store carries no blob")
	}
	cr.Blob[len(cr.Blob)/2] ^= 0x40
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&entry); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, _ := replayFrom(t, dir, o, capSpec, ls)
	mcfg := machine.Baseline().WithLineSize(ls)
	if got, want := sweepPointOf(rep, "Q6", ls), executeSweepPoint(t, o, mcfg, "Q6", ls); !reflect.DeepEqual(got, want) {
		t.Errorf("fallback diverges from execution\nfallback: %+v\nexecute:  %+v", got, want)
	}
}

// TestTraceStoreServesCapture is the positive path: a second process
// (fresh in-memory result cache, same -trace-dir) must answer its
// capture from the spilled blob — replays counted, no re-execution —
// with the identical report.
func TestTraceStoreServesCapture(t *testing.T) {
	dir := t.TempDir()
	o := replayOptions("Q3")
	mcfg := machine.Baseline()

	e1 := NewExecConfig(runner.Config{Workers: 2, TraceDir: dir})
	want, err := e1.RunCold(o, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	e1.Close()

	reg := metrics.New()
	e2 := NewExecConfig(runner.Config{Workers: 2, TraceDir: dir, Metrics: reg})
	defer e2.Close()
	got, err := e2.RunCold(o, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("trace-store-served capture diverges from the executed capture")
	}
	if got := counterValue(t, reg, "dssmem_cache_hits_total", map[string]string{"tier": "trace"}); got == 0 {
		t.Error("capture did not consult the trace store: dssmem_cache_hits_total{tier=trace} = 0")
	}
}
