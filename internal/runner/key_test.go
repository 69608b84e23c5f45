package runner

import (
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestKeyCanonicalization checks the content-address: equal identity
// fields hash equal, and every identity field perturbs the key.
func TestKeyCanonicalization(t *testing.T) {
	base := func() *Job {
		return &Job{Name: "whatever", Mode: "cold", Spec: specQ("Q6")}
	}
	k := base().Key()
	if k == "" {
		t.Fatal("cacheable job has empty key")
	}
	if want := fmt.Sprintf("s%d-", scenario.FormatVersion); !strings.HasPrefix(k, want) {
		t.Fatalf("key %q lacks the %q format-version prefix", k, want)
	}
	same := base()
	same.Name = "a different label" // Name is not identity
	same.Spec.Name = "fig6"         // nor the spec's display name
	if same.Key() != k {
		t.Error("key depends on non-identity fields")
	}

	perturb := map[string]func(*Job){
		"mode":    func(j *Job) { j.Mode = "warm" },
		"scale":   func(j *Job) { j.Spec.Workload.Scale = 0.002 },
		"seed":    func(j *Job) { j.Spec.Workload.Seed = 999 },
		"machine": func(j *Job) { j.Spec.Machine.L2Line *= 2 },
		"sched":   func(j *Job) { j.Spec.Machine.BusyPerAccess = 5 },
		"queries": func(j *Job) { j.Spec.Workload.Queries = []string{"Q3"} },
		"warm":    func(j *Job) { j.Spec.Workload.Warm = "Q12" },
		"sweep":   func(j *Job) { j.Spec.Sweep = scenario.Sweep{Axis: scenario.AxisLine, Points: []int{64}} },
		"extra":   func(j *Job) { j.Extra = []string{"warmer=Q12"} },
	}
	for field, mutate := range perturb {
		j := base()
		mutate(j)
		if j.Key() == k {
			t.Errorf("changing %s does not change the key", field)
		}
	}

	nc := base()
	nc.NoCache = true
	if nc.Key() != "" {
		t.Error("NoCache job has a key")
	}
}

// TestStreamKeyGeneration checks that stream-workload jobs key under the
// stream format generation — so no stream result can ever be addressed
// by (or collide with) a legacy-format cache entry — that streams of
// different lengths are different identities, and that a "phases" job
// (one job per stream, its result one report per phase) never answers
// to the key an older build filed a "stream" or "warm" result under.
func TestStreamKeyGeneration(t *testing.T) {
	stream := func(n int) *Job {
		sc := specQ("Q6")
		sc.Workload.Queries = nil
		for i := 0; i < n; i++ {
			sc.Workload.Phases = append(sc.Workload.Phases, scenario.Phase{
				Flush: i == 0,
				Runs:  [][]scenario.PhaseRun{{{Query: "Q6", Variant: uint64(i)}}},
			})
		}
		return &Job{Name: "stream", Mode: "phases", Spec: sc}
	}
	k2 := stream(2).Key()
	if want := fmt.Sprintf("s%d-", scenario.StreamFormatVersion); !strings.HasPrefix(k2, want) {
		t.Fatalf("stream key %q lacks the %q generation prefix", k2, want)
	}
	if k1 := stream(1).Key(); k1 == k2 {
		t.Error("streams of different lengths share a key")
	}
	if legacy := (&Job{Name: "x", Mode: "phases", Spec: specQ("Q6")}).Key(); strings.HasPrefix(legacy, fmt.Sprintf("s%d-", scenario.StreamFormatVersion)) {
		t.Error("legacy spec keyed under the stream generation")
	}
	for _, old := range []string{"stream", "warm"} {
		j := stream(2)
		j.Mode = old
		if j.Key() == k2 {
			t.Errorf("a phases key equals the %q key of the same spec", old)
		}
	}
}

// versionResult is the payload for the version-bump round trip.
type versionResult struct{ N int }

func init() { gob.Register(versionResult{}) }

// TestVersionBumpMissesOldEntries proves the cache-invalidation story:
// an entry persisted under today's spec format version is addressed by
// an "s<v>-" key, and the key the next format version would compute
// misses it in both tiers.
func TestVersionBumpMissesOldEntries(t *testing.T) {
	dir := t.TempDir()
	f := &fakeFactory{}
	p := New(Config{Workers: 1, CacheDir: dir, Factory: f.build})
	defer p.Close()

	j := &Job{Name: "versioned", Mode: "cold", Spec: specQ("Q6"),
		Body: func(*Ctx) (interface{}, error) { return versionResult{N: 9}, nil }}
	if _, err := p.RunAll(context.Background(), []*Job{j}); err != nil {
		t.Fatal(err)
	}

	old := j.Key()
	if _, err := os.Stat(filepath.Join(dir, old+".gob")); err != nil {
		t.Fatalf("no disk entry under the current key %q: %v", old, err)
	}
	if _, ok := p.cache.get(old); !ok {
		t.Fatalf("current key %q misses its own entry", old)
	}

	next := j.keyAt(scenario.FormatVersion + 1)
	if next == old {
		t.Fatal("format-version bump does not change the key")
	}
	if !strings.HasPrefix(next, fmt.Sprintf("s%d-", scenario.FormatVersion+1)) {
		t.Fatalf("bumped key %q carries the wrong version prefix", next)
	}
	if _, ok := p.cache.get(next); ok {
		t.Error("bumped key hits an entry persisted under the old format")
	}
}
