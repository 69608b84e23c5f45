package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tpcd"
)

// TestLoadStream: -stream reads the scenario phase language, and a
// spec without phases is rejected rather than run as a stream.
func TestLoadStream(t *testing.T) {
	sc, err := loadStream("../../examples/scenario-stream.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(core.StreamPhasesFromSpec(sc.Workload.Phases)); got != 4 {
		t.Errorf("example stream has %d phases, want 4", got)
	}

	path := filepath.Join(t.TempDir(), "cold.json")
	if err := os.WriteFile(path, []byte(`{"workload":{"queries":["Q6"],"scale":0.001}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadStream(path); err == nil || !strings.Contains(err.Error(), "no phases") {
		t.Errorf("spec without phases: err = %v, want a no-phases error", err)
	}
	if err := os.WriteFile(path, []byte(`{"workload":{"phases":[{"runs":[[{"query":"Q99"}]]}]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadStream(path); err == nil {
		t.Error("spec with an unknown query was accepted")
	}
}

func TestPlanTreeRendering(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.DB.ScaleFactor = 0.001
	s, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := tpcd.BuildQuery(s.DB, "Q3", 0)
	out := planTree(plan.Root)
	lines := strings.Split(out, "\n")
	if len(lines) < 6 {
		t.Fatalf("tree too shallow:\n%s", out)
	}
	// Q3's shape: sorts and group on top, nested loops over index scans.
	for _, want := range []string{"Sort", "Group", "NestLoop", "IndexScan"} {
		if !strings.Contains(out, want) {
			t.Errorf("tree missing %s:\n%s", want, out)
		}
	}
	// Children are indented deeper than parents.
	if !strings.HasPrefix(lines[1], "  ") {
		t.Error("no indentation")
	}
}
