package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
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

// TestReplaySurvivesDamagedInlineBlob is the same contract without a
// trace store, where the capture's blob rides inline in its cached
// result: a replay job that finds the inline blob damaged must fall
// back to execution exactly as it does for a damaged spilled blob,
// instead of failing the sweep.
func TestReplaySurvivesDamagedInlineBlob(t *testing.T) {
	const q, ls = "Q6", 128
	o := replayOptions(q)
	e := NewExec(1)
	defer e.Close()
	sc := applyOptions(scenario.Default(), o)
	capSpec := pointSpec(sc, scenario.FromMachineConfig(machine.Baseline()), q)
	if _, err := e.runPlans([]PointPlan{{Query: q, Point: capSpec, Capture: capSpec, IsCapture: true}}); err != nil {
		t.Fatal(err)
	}
	// A probe under the capture's identity resolves from the result
	// cache, and the memory cache hands every later hit this same value,
	// so the damage below is what the replay job's dependency delivers.
	probe := &runner.Job{Name: "probe", Mode: "capture", Spec: capSpec,
		Body: func(*runner.Ctx) (interface{}, error) { return nil, errors.New("capture not cached") }}
	res, err := e.pool.RunAll(context.Background(), []*runner.Job{probe})
	if err != nil {
		t.Fatal(err)
	}
	cr := res[0].(*CaptureResult)
	if len(cr.Blob) == 0 {
		t.Fatal("capture without a trace store carries no inline blob")
	}
	cr.Blob[len(cr.Blob)/2] ^= 0x40

	mcfg := machine.Baseline().WithLineSize(ls)
	replay := PointPlan{Query: q, Point: pointSpec(sc, scenario.FromMachineConfig(mcfg), q), Capture: capSpec}
	reps, err := e.runPlans([]PointPlan{replay})
	if err != nil {
		t.Fatalf("damaged inline blob failed the sweep: %v", err)
	}
	if got, want := sweepPointOf(reps[0], q, ls), executeSweepPoint(t, o, mcfg, q, ls); !reflect.DeepEqual(got, want) {
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

	e2 := NewExecConfig(runner.Config{Workers: 2, TraceDir: dir})
	defer e2.Close()
	got, err := e2.RunCold(o, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("trace-store-served capture diverges from the executed capture")
	}
	st := e2.Pool().Stats()
	if st.TraceHits == 0 {
		t.Errorf("capture did not consult the trace store: %+v", st)
	}
}
