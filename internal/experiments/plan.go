package experiments

import (
	"context"

	"repro/internal/blobstore"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// Scenario planning: the one decomposition of a spec into capture and
// replay points. planPoints decides it, runPlans turns it into jobs, and
// every point measurement in this package goes through the pair — the
// figure sweeps, plain cold specs, Figure 13 and the topology
// comparison locally, and a cluster worker's task through ComputePoint.
// A coordinator cannot ship closures, so PlanScenario exports the same
// plans as plain data (point specs and content-addressed keys).
// Correctness rests on the cache keys being location independent: a
// worker that computes a plan's jobs populates exactly the store
// entries the coordinator's own render of the same spec will resolve
// from.

// BlobRef names one shared-store blob a computed point persists.
type BlobRef struct {
	NS  string `json:"ns"`
	Key string `json:"key"`
}

// PointPlan is one distributable measurement of a scenario: a single
// (machine, query) point, plus the capture configuration whose
// recorded trace derives it. A capture plan measures the capture
// configuration itself; a replay plan depends on its capture — workers
// that miss the capture blob locally recompute it (or fetch it from
// the shared store), so a plan is self-contained either way.
type PointPlan struct {
	Query     string            `json:"query"`
	Point     scenario.Scenario `json:"point"`
	Capture   scenario.Scenario `json:"capture"`
	IsCapture bool              `json:"is_capture"`
}

// PlanScenario decomposes a spec into independent point plans,
// ok=false when the spec is not distributable: invalid specs, and
// warm-cache and phase specs, each of whose streams is one job on one
// simulated system's mutable cache state and therefore cannot split
// across processes. Each plan is a distinct cache key, so len(plans) is
// the spec's real job count.
func PlanScenario(sc scenario.Scenario) ([]PointPlan, bool) {
	if sc.Validate() != nil || sc.Workload.Warm != "" || len(sc.Workload.Phases) > 0 {
		return nil, false
	}
	return planPoints(sc), true
}

// planPoints decomposes a valid query spec: each distinct listed query
// once, as a capture at the spec's machine followed by a replay for each
// distinct other machine the sweep reaches. A repeated query, a
// repeated sweep point and a sweep point that is the spec's own machine
// all fold into a plan already made.
func planPoints(sc scenario.Scenario) []PointPlan {
	plans := make([]PointPlan, 0, len(sc.Workload.Queries)*(1+len(sc.Sweep.Points)))
	base := sc.Machine
	for _, q := range sc.Workload.Queries {
		if planned(plans, q, base) {
			continue
		}
		capSpec := pointSpec(sc, base, q)
		plans = append(plans, PointPlan{Query: q, Point: capSpec, Capture: capSpec, IsCapture: true})
		for _, prm := range sc.Sweep.Points {
			if m := scenario.ApplyAxis(sc.Sweep.Axis, base, prm); !planned(plans, q, m) {
				plans = append(plans, PointPlan{Query: q, Point: pointSpec(sc, m, q), Capture: capSpec})
			}
		}
	}
	return plans
}

// planned reports whether plans already measure query q on machine m.
// A scan allocates nothing, which matters because ProgressKeys plans on
// every daemon job, and a spec has few enough plans to scan.
func planned(plans []PointPlan, q string, m scenario.Machine) bool {
	for i := range plans {
		if plans[i].Query == q && plans[i].Point.Machine == m {
			return true
		}
	}
	return false
}

// point names one measurement of a spec: a query on a machine. Within
// one workload it identifies a report, whichever job computes it.
type point struct {
	query   string
	machine scenario.Machine
}

// runPlans runs plans drawn from one workload and returns one report
// per plan, in plan order. It builds exactly one job per distinct
// point: a capture for each distinct capture (a replay plan's capture
// is added when it is not itself planned, as for ComputePoint), and a
// replay for each replay plan, depending on its capture. Points are
// deduplicated by (query, machine), not by cache key, so planning hashes
// nothing the pool's submission does not already hash.
func (e *Exec) runPlans(plans []PointPlan) ([]*core.Report, error) {
	var jobs []*runner.Job
	index := make(map[point]int, len(plans))
	add := func(at point, build func() *runner.Job) int {
		i, ok := index[at]
		if !ok {
			i = len(jobs)
			index[at] = i
			jobs = append(jobs, build())
		}
		return i
	}
	of := make([]int, len(plans))
	for i, p := range plans {
		c := add(point{p.Query, p.Capture.Machine}, func() *runner.Job { return e.captureJob(p.Capture, p.Query) })
		of[i] = add(point{p.Query, p.Point.Machine}, func() *runner.Job { return e.replayJob(p.Point, p.Query, jobs[c]) })
	}
	res, err := e.pool.RunAll(context.Background(), jobs)
	if err != nil {
		return nil, err
	}
	reps := make([]*core.Report, len(plans))
	for i, j := range of {
		reps[i] = asReport(res[j])
	}
	return reps, nil
}

// measure plans a query spec, runs the plans and returns their reports
// by point.
func (e *Exec) measure(sc scenario.Scenario) (map[point]*core.Report, error) {
	plans := planPoints(sc)
	reps, err := e.runPlans(plans)
	if err != nil {
		return nil, err
	}
	at := make(map[point]*core.Report, len(plans))
	for i, p := range plans {
		at[point{p.Query, p.Point.Machine}] = reps[i]
	}
	return at, nil
}

// CaptureKey is the content-addressed key of the plan's capture job —
// shared by a capture plan and every replay derived from it, which is
// how a coordinator expresses the capture→replay dependency edge.
func (p PointPlan) CaptureKey() string {
	return (&runner.Job{Mode: "capture", Spec: p.Capture}).Key()
}

// ResultKey is the content-addressed key under which ComputePoint's
// measurement lands in the result cache — a capture job's key for
// capture plans, the cold job's key for replays (replay results carry
// the cold identity; see replayJob).
func (p PointPlan) ResultKey() string {
	if p.IsCapture {
		return p.CaptureKey()
	}
	return (&runner.Job{Mode: "cold", Spec: p.Point}).Key()
}

// Blobs lists the shared-store blobs computing this plan persists: the
// capture's result and trace blob always (a replay plan recomputes its
// capture when the store misses), plus the replay's own result.
func (p PointPlan) Blobs() []BlobRef {
	ck := p.CaptureKey()
	refs := []BlobRef{{NS: blobstore.NSResult, Key: ck}, {NS: blobstore.NSTrace, Key: ck}}
	if !p.IsCapture {
		refs = append(refs, BlobRef{NS: blobstore.NSResult, Key: p.ResultKey()})
	}
	return refs
}

// ComputePoint executes one plan on this Exec's pool: the capture job,
// and for replay plans the replay depending on it. Results land in the
// pool's caches under the plan's keys; when the pool is backed by a
// shared blob store this is how a worker materializes a coordinator's
// task.
func (e *Exec) ComputePoint(p PointPlan) error {
	_, err := e.runPlans([]PointPlan{p})
	return err
}

// ProgressKeys returns the distinct result-cache keys RenderScenario
// settles for the spec, in plan order — the denominator of a progress
// bar. Matching them against runner events (Event.Key) attributes
// per-point progress to a scenario no matter which submission computes
// each point. Phase and warm specs, though not distributable, report
// the keys of their phases jobs — one per stream, two per warm query
// (cold and warmed) — computed through the same lowering the jobs run
// under; invalid specs return nil.
func ProgressKeys(sc scenario.Scenario) []string {
	if sc.Validate() != nil {
		return nil
	}
	var all []string
	switch {
	case len(sc.Workload.Phases) > 0:
		all = []string{phasesIdentity(sc).Key()}
	case sc.Workload.Warm != "":
		for _, pair := range warmPairs(sc) {
			all = append(all, phasesIdentity(lowerWarmPair(pair)).Key())
		}
	default:
		for _, p := range planPoints(sc) {
			all = append(all, p.ResultKey())
		}
	}
	// Distinct keys only: a warm workload listing one query twice
	// measures the same pairs twice, but the pool settles each key once.
	seen := make(map[string]bool, len(all))
	keys := make([]string, 0, len(all))
	for _, k := range all {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}
