package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// testStreamPhases is a stream exercising every phase shape at once:
// a flushed warm-up, a mixed-read phase with a two-run processor and an
// idle processor, an update phase (UF1/UF2 interleaved with reads, so
// it must take the live path), and a post-update warm read phase.
func testStreamPhases() []StreamPhase {
	one := func(q string, v uint64) []QueryRun { return []QueryRun{{Query: q, Variant: v}} }
	return []StreamPhase{
		{Flush: true, Runs: [][]QueryRun{one("Q6", 0), one("Q6", 1), one("Q6", 2), one("Q6", 3)}},
		{Runs: [][]QueryRun{
			{{Query: "Q3", Variant: 10}, {Query: "Q6", Variant: 14}},
			one("Q12", 11), nil, one("Q12", 13),
		}},
		{Runs: [][]QueryRun{one("UF1", 20), one("UF2", 21), one("Q6", 22), one("Q3", 23)}},
		{Runs: [][]QueryRun{one("Q6", 30), nil, nil, nil}},
	}
}

// TestStreamReplayMatchesExecution is the capture-per-stream contract:
// recording a stream does not perturb its reports, and replaying the
// segmented trace — whole-blob or streamed — reproduces every phase's
// report bit for bit, including the update phase and phases with idle
// or multi-run processors.
func TestStreamReplayMatchesExecution(t *testing.T) {
	cfg := testConfig(0.001)
	phases := testStreamPhases()

	s1, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := s1.RunStream(phases)

	s2, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recReps, segs := s2.RunStreamRecorded(phases)
	if !reflect.DeepEqual(reps, recReps) {
		t.Fatal("recording perturbed the stream's reports")
	}
	if segs[2].Queries[0] != "UF1" || reps[1].Queries[0] != "Q3+Q6" || reps[1].Queries[2] != "" {
		t.Fatalf("unexpected labels: %v / %v", segs[2].Queries, reps[1].Queries)
	}

	blob := s2.StreamTrace(segs).Marshal()
	tr, err := trace.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := trace.OpenBlob(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]trace.StreamSource{"unmarshal": tr, "openblob": rd} {
		replayed, err := ReplayStream(src, cfg.Machine)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(replayed) != len(reps) {
			t.Fatalf("%s: %d segment reports, want %d", name, len(replayed), len(reps))
		}
		for k := range reps {
			if !reflect.DeepEqual(reps[k], replayed[k]) {
				t.Errorf("%s: phase %d replay diverges from direct execution", name, k)
			}
		}
	}
}

// TestStreamReplaySweeps generalizes the record-once/replay-many sweep
// contract to streams: a read-only stream captured at the baseline
// replays bit-identically to fresh executions under other machine
// geometries, phase by phase, with warm state carried across segments.
func TestStreamReplaySweeps(t *testing.T) {
	cfg := testConfig(0.001)
	one := func(q string, v uint64) []QueryRun { return []QueryRun{{Query: q, Variant: v}} }
	phases := []StreamPhase{
		{Flush: true, Runs: [][]QueryRun{one("Q6", 0), one("Q6", 1), one("Q6", 2), one("Q6", 3)}},
		{Runs: [][]QueryRun{
			{{Query: "Q3", Variant: 10}, {Query: "Q6", Variant: 14}},
			one("Q12", 11), nil, one("Q12", 13),
		}},
	}

	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, segs := s.RunStreamRecorded(phases)
	tr, err := trace.Unmarshal(s.StreamTrace(segs).Marshal())
	if err != nil {
		t.Fatal(err)
	}

	pf := cfg.Machine
	pf.PrefetchData = true
	pf.PrefetchDegree = 4
	for _, c := range []struct {
		name string
		cfg  machine.Config
	}{
		{"line256", cfg.Machine.WithLineSize(256)},
		{"prefetch4", pf},
	} {
		mcfg := c.cfg
		ccfg := cfg
		ccfg.Machine = mcfg
		sf, err := NewSystem(ccfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fresh := sf.RunStream(phases)
		replayed, err := ReplayStream(tr, mcfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for k := range fresh {
			if !reflect.DeepEqual(fresh[k], replayed[k]) {
				t.Errorf("%s: phase %d replay diverges from fresh execution", c.name, k)
			}
		}
	}
}

// TestLegacyPhasesEquivalence pins the degenerate mapping: the legacy
// cold and warm-pair workload shapes, lowered through
// scenario.LegacyPhases, execute identically to the hand-rolled
// RunQueries sequences the experiments have always used.
func TestLegacyPhasesEquivalence(t *testing.T) {
	cfg := testConfig(0.001)
	variants := func(q string, base uint64) []QueryRun {
		runs := make([]QueryRun, 4)
		for i := range runs {
			runs[i] = QueryRun{Query: q, Variant: base + uint64(i)}
		}
		return runs
	}

	s1, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := s1.RunStream(StreamPhasesFromSpec(scenario.LegacyPhases("Q3", "Q6", 4)))

	s2, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2.ColdStart()
	warm := s2.RunQueries(variants("Q6", 0))
	s2.ResetMeasurement()
	measured := s2.RunQueries(variants("Q3", 100))
	if !reflect.DeepEqual(reps[0], warm) || !reflect.DeepEqual(reps[1], measured) {
		t.Error("legacy warm pair diverges from its phase mapping")
	}

	cold1, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coldReps := cold1.RunStream(StreamPhasesFromSpec(scenario.LegacyPhases("Q6", "", 4)))
	cold2, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cold2.ColdStart()
	if cold := cold2.RunQueries(variants("Q6", 100)); !reflect.DeepEqual(coldReps[0], cold) {
		t.Error("legacy cold shape diverges from its phase mapping")
	}
}

// TestReplayStreamUnsegmented: an unsegmented single-query trace
// replays through ReplayStream as one flushed segment, identical to
// ReplayTrace — which in turn refuses anything but a single segment.
func TestReplayStreamUnsegmented(t *testing.T) {
	cfg := testConfig(0.001)
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, tr := s.RunColdRecorded("Q6")
	single, err := ReplayTrace(tr, cfg.Machine)
	if err != nil {
		t.Fatal(err)
	}
	reps, err := ReplayStream(tr, cfg.Machine)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || !reflect.DeepEqual(reps[0], single) {
		t.Error("unsegmented ReplayStream diverges from ReplayTrace")
	}
	seg := trace.Segment{Flush: true, Rows: tr.Rows, Streams: tr.Streams}
	if _, err := ReplayTrace(s.StreamTrace([]trace.Segment{seg, seg}), cfg.Machine); err == nil {
		t.Error("ReplayTrace accepted a 2-segment source")
	}
}

// TestRunStreamAnswers pins per-run answer bookkeeping for the CLI:
// every non-idle run reports its own row count, in processor order.
func TestRunStreamAnswers(t *testing.T) {
	s, err := NewSystem(testConfig(0.001))
	if err != nil {
		t.Fatal(err)
	}
	phases := testStreamPhases()
	answers := s.RunStreamAnswers(phases)
	if len(answers) != len(phases) {
		t.Fatalf("%d phase answers, want %d", len(answers), len(phases))
	}
	if got := answers[1]; len(got) != 4 ||
		got[0].Query != "Q3" || got[1].Query != "Q6" || got[0].Proc != 0 || got[1].Proc != 0 ||
		got[2].Query != "Q12" || got[2].Proc != 1 || got[3].Proc != 3 {
		t.Fatalf("phase 1 answers = %+v", answers[1])
	}
	for _, ph := range answers {
		for _, a := range ph {
			if a.Rows < 0 {
				t.Fatalf("negative rows: %+v", a)
			}
		}
	}
}
