package experiments

import (
	"context"

	"repro/internal/blobstore"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// Scenario planning: the distributable decomposition of a spec. A
// coordinator cannot ship closures, so this file exports the same
// capture/replay structure runSweep and RunScenario build internally —
// as plain data (point specs and content-addressed keys) that a peer
// daemon can turn back into jobs with ComputePoint. Correctness rests
// on the cache keys being location independent: a worker that computes
// a plan's jobs populates exactly the store entries the coordinator's
// own render of the same spec will resolve from.

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

// PlanScenario decomposes a validated spec into independent point
// plans, ok=false when the spec is not distributable: invalid specs,
// and warm-cache and phase specs, each of whose streams is one job on
// one simulated system's mutable cache state and therefore cannot split
// across processes. Replay plans for duplicate sweep points and for
// the capture's own configuration are folded away — each plan is a
// distinct cache key, so len(plans) is the spec's real job count.
func PlanScenario(sc scenario.Scenario) ([]PointPlan, bool) {
	if sc.Validate() != nil || sc.Workload.Warm != "" || len(sc.Workload.Phases) > 0 {
		return nil, false
	}
	var plans []PointPlan
	base := sc.Machine
	for _, q := range sc.Workload.Queries {
		capSpec := pointSpec(sc, base, q)
		plans = append(plans, PointPlan{Query: q, Point: capSpec, Capture: capSpec, IsCapture: true})
		seen := map[scenario.Machine]bool{base: true}
		for _, prm := range sc.Sweep.Points {
			m := scenario.ApplyAxis(sc.Sweep.Axis, base, prm)
			if seen[m] {
				continue
			}
			seen[m] = true
			plans = append(plans, PointPlan{Query: q, Point: pointSpec(sc, m, q), Capture: capSpec})
		}
	}
	return plans, true
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
	capture := e.captureJob(p.Capture, p.Query)
	jobs := []*runner.Job{capture}
	if !p.IsCapture {
		jobs = append(jobs, e.replayJob(p.Point, p.Query, capture))
	}
	_, err := e.pool.RunAll(context.Background(), jobs)
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
		plans, _ := PlanScenario(sc)
		for _, p := range plans {
			all = append(all, p.ResultKey())
		}
	}
	// Distinct keys only: a workload listing one query twice plans the
	// same jobs twice, but the pool settles each key once.
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
