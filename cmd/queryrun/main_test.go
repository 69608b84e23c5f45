package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tpcd"
)

// TestParseStream pins the -stream grammar: ';' phases, ',' processor
// chains, '+' chained runs, empty chains idle, '!' flushes, and the
// 100*phase + 10*proc + run variant schedule.
func TestParseStream(t *testing.T) {
	got, err := parseStream("Q6,Q6;Q3+Q6,;!UF1,Q12", 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []core.StreamPhase{
		{Flush: true, Runs: [][]core.QueryRun{
			{{Query: "Q6", Variant: 0}}, {{Query: "Q6", Variant: 10}},
		}},
		{Runs: [][]core.QueryRun{
			{{Query: "Q3", Variant: 100}, {Query: "Q6", Variant: 101}}, nil,
		}},
		{Flush: true, Runs: [][]core.QueryRun{
			{{Query: "UF1", Variant: 200}}, {{Query: "Q12", Variant: 210}},
		}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseStream:\n got %+v\nwant %+v", got, want)
	}

	if _, err := parseStream("Q6,Q6,Q6", 2); err == nil {
		t.Error("three chains on two processors did not error")
	}
	if _, err := parseStream("Q6+,Q3", 2); err == nil {
		t.Error("empty run inside a chain did not error")
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
