package experiments

import (
	"context"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Ablations for the modeling decisions DESIGN.md calls out: how much
// each mechanism matters to the headline results. Each sweep reuses one
// loaded database and reports execution time and the affected stall
// component. The sweeps themselves are data: the "ablations" and
// "topology" presets in internal/scenario carry the axes and points,
// and this file interprets them.

// AblationPoint is one configuration's measurement.
type AblationPoint struct {
	Name  string
	Query string
	Bd    stats.CycleBreakdown
	Mach  machine.Stats
	Clock int64
}

// ablationPointName labels one swept configuration the way the
// rendered tables historically named it.
func ablationPointName(axis string, p int) string {
	switch axis {
	case scenario.AxisPrefetch:
		if p == 0 {
			return "off"
		}
		return "deg" + itoa(p)
	case scenario.AxisWriteBuf:
		return "wb" + itoa(p)
	case scenario.AxisContention:
		if p == 0 {
			return "contention-off"
		}
		return "contention-on"
	case scenario.AxisLine:
		return "line" + itoa(p)
	case scenario.AxisCache:
		return "l2kb" + itoa(p)
	}
	return itoa(p)
}

// runConfigs runs one ablation sweep as a single job: the sweep's
// configurations execute sequentially on one shared system (swapping
// machines with ReplaceScenarioMachine), because the sweep's point is
// the marginal effect of one knob along an axis — each point measured
// against the same system history. The whole sweep is the cacheable
// unit; independent sweeps still run concurrently as separate jobs.
//
// With replay set, only the first two points execute: the first run on
// a fresh system warms the database into its steady state, the second
// is recorded, and every later point replays that recording under its
// own machine — valid because the machine knobs these sweeps turn
// (prefetch depth, write-buffer depth) never change the steady-state
// reference stream. Contention sweeps pass false: the paper's framing
// keeps them execution-measured.
func (e *Exec) runConfigs(sc scenario.Scenario, query string, replay bool,
	names []string, machines []scenario.Machine) ([]AblationPoint, error) {
	job := &runner.Job{
		Name:  "ablate/" + query + "/" + names[0] + ".." + names[len(names)-1],
		Mode:  "ablate",
		Spec:  pointSpec(sc, machines[0], query),
		Extra: []string{"sweep=" + strings.Join(names, ",")},
		Body: func(c *runner.Ctx) (interface{}, error) {
			s, err := c.System()
			if err != nil {
				return nil, err
			}
			var warm *trace.QueryTrace
			out := make([]AblationPoint, 0, len(machines))
			for i, m := range machines {
				if err := s.ReplaceScenarioMachine(m); err != nil {
					return nil, err
				}
				var rep *core.Report
				switch {
				case replay && warm != nil:
					if rep, err = s.ReplayCold(warm); err != nil {
						return nil, err
					}
					e.met.replays.Inc()
				case replay && i == 1:
					rep, warm = s.RunColdRecorded(query)
					e.met.captures.Inc()
				default:
					rep = s.RunCold(query)
				}
				out = append(out, AblationPoint{
					Name: names[i], Query: query,
					Bd: rep.Total(), Mach: rep.Machine, Clock: rep.MaxClock(),
				})
			}
			return out, nil
		},
	}
	res, err := e.pool.RunAll(context.Background(), []*runner.Job{job})
	if err != nil {
		return nil, err
	}
	return res[0].([]AblationPoint), nil
}

// runAblation interprets one swept ablation spec: every sweep point
// becomes a named configuration via ApplyAxis, and the axis decides the
// measurement discipline — timing-only knobs (prefetch, write buffer)
// replay one recording, contention stays execution-measured.
func (e *Exec) runAblation(o Options, sc scenario.Scenario) ([]AblationPoint, error) {
	sc = applyOptions(sc, o)
	axis := sc.Sweep.Axis
	replay := axis == scenario.AxisPrefetch || axis == scenario.AxisWriteBuf
	query := sc.Workload.Queries[0]
	names := make([]string, len(sc.Sweep.Points))
	machines := make([]scenario.Machine, len(sc.Sweep.Points))
	for i, p := range sc.Sweep.Points {
		names[i] = ablationPointName(axis, p)
		machines[i] = scenario.ApplyAxis(axis, sc.Machine, p)
	}
	return e.runConfigs(sc, query, replay, names, machines)
}

// ablationScenario pulls the ablations-preset spec for one axis,
// pointed at the given query.
func ablationScenario(axis, query string) scenario.Scenario {
	p, ok := scenario.PresetByName("ablations")
	if !ok {
		panic("experiments: ablations preset missing")
	}
	for _, sc := range p.Scenarios {
		if sc.Sweep.Axis == axis {
			sc.Workload.Queries = []string{query}
			return sc
		}
	}
	panic("experiments: ablations preset has no " + axis + " sweep")
}

// PrefetchDegrees is the prefetch-depth ablation (the paper fixes 4).
var PrefetchDegrees = scenario.PrefetchDegrees

// AblatePrefetchDegree sweeps the sequential prefetcher's depth on a
// Sequential query: deeper prefetching removes more Data stall until
// cache disruption and late arrivals flatten the curve.
func (e *Exec) AblatePrefetchDegree(o Options, query string) ([]AblationPoint, error) {
	return e.runAblation(o, ablationScenario(scenario.AxisPrefetch, query))
}

// AblateWriteBuffer sweeps the coalescing write buffer's depth: shallow
// buffers stall the processor on store bursts (tuple copies into
// private slots), deep ones hide them entirely.
func (e *Exec) AblateWriteBuffer(o Options, query string) ([]AblationPoint, error) {
	return e.runAblation(o, ablationScenario(scenario.AxisWriteBuf, query))
}

// AblateContention toggles directory-occupancy queueing — the paper
// models "all contention in the system ... except in the network". An
// Index query's hot lock homes feel it; with it off, MSync shrinks.
func (e *Exec) AblateContention(o Options, query string) ([]AblationPoint, error) {
	return e.runAblation(o, ablationScenario(scenario.AxisContention, query))
}

// CompareTopology runs each query on the paper's directory CC-NUMA and
// on a bus-based snooping SMP with the same caches — the two
// shared-memory organizations of the paper's era (its machine is the
// NUMA; the Sequent systems it cites were buses). Streaming queries
// saturate the single bus where the page-interleaved directories
// spread the load. The two machines are the topology preset's specs,
// NUMA first.
func (e *Exec) CompareTopology(o Options) ([]AblationPoint, error) {
	p, ok := scenario.PresetByName("topology")
	if !ok {
		panic("experiments: topology preset missing")
	}
	// The NUMA point is the baseline cold run: planned as the capture it
	// shares the Figure 6/7/sweep anchor's cache entry instead of
	// re-simulating. The interconnect changes timing, not the reference
	// stream: every later machine replays the NUMA capture.
	var plans []PointPlan
	for _, q := range o.Queries {
		capture := pointSpec(applyOptions(p.Scenarios[0], o), p.Scenarios[0].Machine, q)
		for i, tsc := range p.Scenarios {
			sc := pointSpec(applyOptions(tsc, o), tsc.Machine, q)
			plans = append(plans, PointPlan{Query: q, Point: sc, Capture: capture, IsCapture: i == 0})
		}
	}
	reps, err := e.runPlans(plans)
	if err != nil {
		return nil, err
	}
	out := make([]AblationPoint, len(reps))
	for i, rep := range reps {
		q := plans[i].Query
		out[i] = AblationPoint{
			Name: q + "/" + p.Scenarios[i%len(p.Scenarios)].Name, Query: q,
			Bd: rep.Total(), Mach: rep.Machine, Clock: rep.MaxClock(),
		}
	}
	return out, nil
}

// TopologyTable renders the NUMA-vs-bus comparison, normalizing each
// query to its own NUMA baseline.
func TopologyTable(points []AblationPoint) *stats.Table {
	t := &stats.Table{Header: []string{"Config", "Busy", "MSync", "PMem", "SMem", "Total"}}
	base := map[string]uint64{}
	for _, p := range points {
		if _, ok := base[p.Query]; !ok {
			base[p.Query] = p.Bd.Total() // first point per query = numa
		}
	}
	for _, p := range points {
		b := base[p.Query]
		t.AddRow(p.Name,
			100*float64(p.Bd.Busy)/float64(b),
			100*float64(p.Bd.MSync)/float64(b),
			100*float64(p.Bd.PMem())/float64(b),
			100*float64(p.Bd.SMem())/float64(b),
			100*float64(p.Bd.Total())/float64(b))
	}
	return t
}

// AblationTable renders a sweep: total time normalized to the first
// point, with the stall decomposition.
func AblationTable(points []AblationPoint) *stats.Table {
	t := &stats.Table{Header: []string{"Config", "Busy", "MSync", "PMem", "SMem", "Total", "WBStalls", "Prefetches"}}
	if len(points) == 0 {
		return t
	}
	base := points[0].Bd.Total()
	for _, p := range points {
		t.AddRow(p.Name,
			100*float64(p.Bd.Busy)/float64(base),
			100*float64(p.Bd.MSync)/float64(base),
			100*float64(p.Bd.PMem())/float64(base),
			100*float64(p.Bd.SMem())/float64(base),
			100*float64(p.Bd.Total())/float64(base),
			p.Mach.WBOverflows,
			p.Mach.Prefetches)
	}
	return t
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
