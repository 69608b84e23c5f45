package experiments

import (
	"bytes"
	"testing"

	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/simm"
)

// TestExtensionsArePoolJobs pins update, intraquery and streams to the
// one road: each renders as exactly one cacheable pool job, so a second
// render on the same Exec settles from the result cache — CacheHits
// rises, dssmem_runner_jobs_completed_total does not — with identical
// bytes.
func TestExtensionsArePoolJobs(t *testing.T) {
	reg := metrics.New()
	e := NewExecConfig(runner.Config{Workers: 2, Metrics: reg})
	defer e.Close()
	completed := func() float64 {
		for _, f := range reg.Snapshot() {
			if f.Name == "dssmem_runner_jobs_completed_total" {
				return f.Samples[0].Value
			}
		}
		t.Fatal("no dssmem_runner_jobs_completed_total")
		return 0
	}
	for _, name := range []string{"update", "intraquery", "streams"} {
		before, hits := completed(), e.Pool().Stats().CacheHits
		var first, second bytes.Buffer
		if err := e.Render(&first, name, testOptions(0.001)); err != nil {
			t.Fatal(err)
		}
		if got := completed(); got != before+1 {
			t.Errorf("%s: first render completed %v pool jobs, want 1", name, got-before)
		}
		if err := e.Render(&second, name, testOptions(0.001)); err != nil {
			t.Fatal(err)
		}
		if got := completed(); got != before+1 {
			t.Errorf("%s: second render simulated again (%v new completions)", name, got-before-1)
		}
		if got := e.Pool().Stats().CacheHits; got != hits+1 {
			t.Errorf("%s: cache hits %d -> %d, want one hit for the second render", name, hits, got)
		}
		if first.Len() == 0 || !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("%s: cached render differs from the first", name)
		}
	}
}

func TestUpdateWorkloadsAreLockBound(t *testing.T) {
	results, err := newTestExec(t).RunUpdate(testOptions(0.001))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]UpdateResult{}
	for _, r := range results {
		byName[r.Workload] = r
	}
	q6, uf1, uf2 := byName["Q6"], byName["UF1"], byName["UF2"]
	if uf1.Rows == 0 || uf2.Rows == 0 {
		t.Fatalf("update functions did no work: UF1=%d UF2=%d", uf1.Rows, uf2.Rows)
	}
	// The paper's prediction: update queries are much more demanding on
	// the locking algorithm. Both UFs must spend a far larger share of
	// time in MSync than the read-only query.
	share := func(r UpdateResult) float64 {
		return float64(r.Bd.MSync) / float64(r.Bd.Total())
	}
	if share(uf1) < 3*share(q6) {
		t.Errorf("UF1 MSync share %.3f not >> Q6's %.3f", share(uf1), share(q6))
	}
	if share(uf2) < 3*share(q6) {
		t.Errorf("UF2 MSync share %.3f not >> Q6's %.3f", share(uf2), share(q6))
	}
	// And their lock-metadata misses dominate relative to Q6's.
	lockMiss := func(r UpdateResult) uint64 {
		return r.Machine.L2Misses.ByCategory(simm.CatLockSLock) +
			r.Machine.L2Misses.ByCategory(simm.CatLockHash) +
			r.Machine.L2Misses.ByCategory(simm.CatXidHash)
	}
	if lockMiss(uf1) == 0 || lockMiss(uf2) == 0 {
		t.Error("update functions produced no lock-metadata misses")
	}
	if tbl := UpdateTable(results); len(tbl.Rows) != 3 {
		t.Error("UpdateTable wrong size")
	}
}

func TestPrefetchDegreeAblation(t *testing.T) {
	pts, err := newTestExec(t).AblatePrefetchDegree(testOptions(0.001), "Q6")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(PrefetchDegrees)+1 {
		t.Fatalf("points = %d", len(pts))
	}
	off := pts[0]
	if off.Mach.Prefetches != 0 {
		t.Error("baseline issued prefetches")
	}
	// Any prefetching beats none on a Sequential query; deeper issues more.
	prev := uint64(0)
	for _, p := range pts[1:] {
		if p.Bd.Total() >= off.Bd.Total() {
			t.Errorf("%s: no gain over off", p.Name)
		}
		if p.Mach.Prefetches <= prev {
			t.Errorf("%s: prefetch count did not grow (%d)", p.Name, p.Mach.Prefetches)
		}
		prev = p.Mach.Prefetches
	}
}

func TestWriteBufferAblation(t *testing.T) {
	pts, err := newTestExec(t).AblateWriteBuffer(testOptions(0.001), "Q6")
	if err != nil {
		t.Fatal(err)
	}
	// Overflow stalls are non-increasing with depth and reach zero.
	prev := uint64(1 << 62)
	for _, p := range pts {
		if p.Mach.WBOverflows > prev {
			t.Errorf("%s: overflows rose to %d", p.Name, p.Mach.WBOverflows)
		}
		prev = p.Mach.WBOverflows
	}
	if last := pts[len(pts)-1]; last.Mach.WBOverflows != 0 {
		t.Errorf("deep buffer still overflows: %d", last.Mach.WBOverflows)
	}
}

func TestContentionAblation(t *testing.T) {
	pts, err := newTestExec(t).AblateContention(testOptions(0.001), "Q3")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatal("want 2 points")
	}
	// Removing directory occupancy can only help.
	if pts[1].Bd.Total() > pts[0].Bd.Total() {
		t.Errorf("contention-off slower than on: %d vs %d", pts[1].Bd.Total(), pts[0].Bd.Total())
	}
}

func TestIntraQueryParallelism(t *testing.T) {
	results, err := newTestExec(t).RunIntraQuery(testOptions(0.001))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]IntraResult{}
	for _, r := range results {
		byName[r.Name] = r
	}
	one, intra := byName["1-proc"], byName["intra-query-4"]
	// The partitioned answer equals the one-processor answer.
	if one.Revenue != intra.Revenue {
		t.Errorf("partitioned revenue %d != sequential %d", intra.Revenue, one.Revenue)
	}
	// Meaningful speedup (near-linear at real scales; allow slack here).
	speedup := float64(one.Clock) / float64(intra.Clock)
	if speedup < 2.5 {
		t.Errorf("intra-query speedup = %.2f, want > 2.5", speedup)
	}
	if tbl := IntraQueryTable(results); len(tbl.Rows) != 3 {
		t.Error("table wrong size")
	}
}

func TestStreamsSteadyState(t *testing.T) {
	points, err := newTestExec(t).RunStreams(testOptions(0.001))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != streamRounds {
		t.Fatalf("points = %d", len(points))
	}
	byQuery := map[string][]StreamPoint{}
	for _, p := range points {
		byQuery[p.Query] = append(byQuery[p.Query], p)
	}
	// Sequential queries speed up once their table is cached; the last
	// round must be meaningfully faster than the cold one.
	for _, q := range []string{"Q6", "Q12"} {
		pts := byQuery[q]
		cold, last := pts[0].Clock, pts[len(pts)-1].Clock
		if float64(last) > 0.92*float64(cold) {
			t.Errorf("%s steady state %d not faster than cold %d", q, last, cold)
		}
	}
	// The Index query's gain is comparatively small.
	q3 := byQuery["Q3"]
	cold, last := q3[0].Clock, q3[len(q3)-1].Clock
	if float64(last) < 0.75*float64(cold) {
		t.Errorf("Q3 steady state %d suspiciously fast vs cold %d", last, cold)
	}
	if tbl := StreamsTable(points); len(tbl.Rows) != streamRounds {
		t.Error("table wrong size")
	}
}

func TestScorecardAllClaimsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	if raceEnabled {
		t.Skip("native-speed claim pinning; the race-mode net is determinism_test.go")
	}
	claims, err := newTestExec(t).RunScorecard(testOptions(0.002))
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) < 20 {
		t.Fatalf("only %d claims graded", len(claims))
	}
	for _, c := range claims {
		if !c.Pass {
			t.Errorf("%s FAILED (%s): %s", c.ID, c.Detail, c.Text)
		}
	}
	if tbl := ScorecardTable(claims); len(tbl.Rows) != len(claims) {
		t.Error("table wrong size")
	}
}

func TestTopologyComparison(t *testing.T) {
	o := testOptions(0.001)
	o.Queries = []string{"Q6", "Q3"}
	points, err := newTestExec(t).CompareTopology(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	byName := map[string]AblationPoint{}
	for _, p := range points {
		byName[p.Name] = p
	}
	// At 4 processors the bus's short round trip beats remote NUMA
	// latency (buses scaled to this size fine in the era; NUMA is for
	// bigger machines).
	if byName["Q6/bus"].Bd.Total() >= byName["Q6/numa"].Bd.Total() {
		t.Error("bus should beat 4-node NUMA on Q6 at this scale")
	}
	// The bus also cuts Q3's lock ping-pong cost (flat 120-cycle
	// transfers instead of 350-cycle 3-hops).
	if byName["Q3/bus"].Bd.MSync >= byName["Q3/numa"].Bd.MSync {
		t.Error("bus should cut Q3's MSync")
	}
	if tbl := TopologyTable(points); len(tbl.Rows) != 4 {
		t.Error("table wrong size")
	}
}
