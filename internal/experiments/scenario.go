package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/runner"
	"repro/internal/scenario"
)

// The generic spec interpreter: any validated scenario — preset or
// never-seen-before — runs through the same capture/replay machinery as
// the named experiments, so a custom spec that revisits a preset's
// configuration resolves from the same cache entries.

// ScenarioResult is one spec's outcome. Exactly one of Points, Warm,
// Stream, and Cold is populated, matching the spec's shape: a sweep, a
// warmed measurement, a multi-phase stream, or a plain cold
// characterization.
type ScenarioResult struct {
	Spec scenario.Scenario
	Hash string

	Cold   []QueryResult
	Warm   []WarmResult
	Points []SweepPoint
	Stream []StreamPhaseResult
}

// RunScenario validates and executes one spec. Swept specs expand into
// capture+replay jobs exactly like the figure sweeps; specs with a
// warmer become warm pairs (each query measured cold and after the
// warmer, so the rendering can normalize), each the two-phase stream it
// lowers to; phase specs become one job per stream, measured phase by
// phase; plain specs run each query cold.
func (e *Exec) RunScenario(sc scenario.Scenario) (*ScenarioResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	res := &ScenarioResult{Spec: sc, Hash: sc.Hash()}
	switch {
	case len(sc.Workload.Phases) > 0:
		stream, err := e.runStreamSpec(sc)
		if err != nil {
			return nil, err
		}
		res.Stream = stream

	case sc.Sweep.Axis != "":
		pts, err := e.runSweep(sc)
		if err != nil {
			return nil, err
		}
		res.Points = pts

	case sc.Workload.Warm != "":
		warm, err := e.measureWarmPairs(warmPairs(sc))
		if err != nil {
			return nil, err
		}
		res.Warm = warm

	default:
		jobs := make([]*runner.Job, len(sc.Workload.Queries))
		for i, q := range sc.Workload.Queries {
			jobs[i] = e.captureJob(pointSpec(sc, sc.Machine, q), q)
		}
		reps, err := e.reports(jobs)
		if err != nil {
			return nil, err
		}
		for i, rep := range reps {
			res.Cold = append(res.Cold, QueryResult{Query: sc.Workload.Queries[i], Report: rep})
		}
	}
	return res, nil
}

// ScenarioLabel is the metrics/report label for a spec: its name when
// that names a preset, "custom" otherwise.
func ScenarioLabel(sc scenario.Scenario) string {
	if _, ok := scenario.PresetByName(sc.Name); ok {
		return sc.Name
	}
	return "custom"
}

// axisParamName maps a sweep axis to the column header its tables use
// (the figure sweeps' historical headers for their axes).
func axisParamName(axis string) string {
	switch axis {
	case scenario.AxisLine:
		return "L2Line"
	case scenario.AxisCache:
		return "L2KB"
	case scenario.AxisPrefetch:
		return "Degree"
	case scenario.AxisWriteBuf:
		return "WBEntries"
	case scenario.AxisContention:
		return "DirOcc"
	}
	return "Param"
}

// RenderScenario runs a spec and writes its report: a header naming the
// spec, its content hash, and the machine/workload/sweep it describes,
// then the measurement tables in the named experiments' formats. Like
// Render, a successful render observes dssmem_experiment_seconds and
// the simulated cycles — labelled with the preset name when the spec
// carries one, "custom" otherwise.
func (e *Exec) RenderScenario(w io.Writer, sc scenario.Scenario) error {
	start := time.Now()
	label := ScenarioLabel(sc)
	err := e.renderScenario(w, sc, label)
	if err == nil {
		e.met.seconds.With(label).Observe(time.Since(start).Seconds())
	}
	return err
}

func (e *Exec) renderScenario(w io.Writer, sc scenario.Scenario, label string) error {
	res, err := e.RunScenario(sc)
	if err != nil {
		return err
	}
	sc = res.Spec
	name := sc.Name
	if name == "" {
		name = label
	}
	m := sc.Machine
	fmt.Fprintf(w, "Scenario %s (%s)\n", name, res.Hash)
	fmt.Fprintf(w, "Machine: %d processors, L1 %dB/%dB lines, L2 %dB/%dB lines %d-way, %d-entry write buffer",
		m.Processors, m.L1Bytes, m.L1Line, m.L2Bytes, m.L2Line, m.L2Ways, m.WriteBufEntries)
	if m.PrefetchData {
		fmt.Fprintf(w, ", prefetch degree %d", m.PrefetchDegree)
	}
	if m.SnoopingBus {
		fmt.Fprint(w, ", snooping bus")
	}
	fmt.Fprintln(w)
	if n := len(sc.Workload.Phases); n > 0 {
		fmt.Fprintf(w, "Workload: %d-phase stream, scale %g, seed %d\n",
			n, sc.Workload.Scale, sc.Workload.Seed)
	} else {
		fmt.Fprintf(w, "Workload: queries %s, scale %g, seed %d\n",
			strings.Join(sc.Workload.Queries, ","), sc.Workload.Scale, sc.Workload.Seed)
	}
	if sc.Workload.Warm != "" {
		fmt.Fprintf(w, "Warmed by: %s\n", sc.Workload.Warm)
	}
	if sc.Sweep.Axis != "" {
		fmt.Fprintf(w, "Sweep: %s over %v\n", sc.Sweep.Axis, sc.Sweep.Points)
	}
	fmt.Fprintln(w)

	switch {
	case res.Stream != nil:
		e.addCycles(label, streamClocks(res.Stream)...)
		fmt.Fprintln(w, "Phase execution (Index: Q3,Q12; Sequential: Q6; Update: UF1,UF2)")
		fmt.Fprint(w, StreamPhaseTable(res.Stream))
		fmt.Fprintln(w, "\nPer-phase secondary-cache misses by structure (phase 0 = 100)")
		fmt.Fprint(w, StreamMissTable(res.Stream))
		fmt.Fprintln(w)

	case res.Points != nil:
		param := axisParamName(sc.Sweep.Axis)
		baseline := sc.Sweep.Points[0]
		e.addCycles(label, sweepClocks(res.Points)...)
		for _, q := range sc.Workload.Queries {
			l1, l2 := normTables(res.Points, q, param, baseline)
			fmt.Fprintf(w, "%s misses across the sweep, primary cache (first point = 100)\n", q)
			fmt.Fprint(w, l1)
			fmt.Fprintf(w, "\n%s misses across the sweep, secondary cache\n", q)
			fmt.Fprint(w, l2)
			fmt.Fprintf(w, "\n%s execution time across the sweep (first point = 100)\n", q)
			fmt.Fprint(w, timeTable(res.Points, q, param, baseline))
			fmt.Fprintln(w)
		}

	case res.Warm != nil:
		for _, q := range sc.Workload.Queries {
			fmt.Fprintf(w, "%s secondary-cache misses, cold vs warmed by %s (cold = 100)\n",
				q, sc.Workload.Warm)
			fmt.Fprint(w, Fig12(res.Warm, q))
			fmt.Fprintln(w)
		}

	default:
		e.addCycles(label, queryClocks(res.Cold)...)
		a, b := Fig6(res.Cold)
		fmt.Fprintln(w, "Execution time breakdown")
		fmt.Fprint(w, a)
		fmt.Fprintln(w, "\nMemory stall time by data structure")
		fmt.Fprint(w, b)
		fmt.Fprintln(w)
		for _, r := range res.Cold {
			_, _, rates := Fig7(r)
			fmt.Fprintln(w, rates)
		}
	}
	return nil
}
