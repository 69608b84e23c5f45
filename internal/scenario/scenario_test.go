package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sched"
)

// TestDefaultsFillEmptySpec checks the decode-over-defaults contract:
// an empty spec is exactly today's baseline run.
func TestDefaultsFillEmptySpec(t *testing.T) {
	sc, err := Decode([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("empty spec does not validate: %v", err)
	}
	if got := sc.Machine.MachineConfig(); got != machine.Baseline() {
		t.Errorf("empty spec machine = %+v, want the baseline", got)
	}
	if got := sc.Machine.SchedConfig(); got != sched.DefaultConfig() {
		t.Errorf("empty spec sched = %+v, want the default cost model", got)
	}
	w := sc.Workload
	if w.Scale != 0.01 || w.Seed != 12345 || !reflect.DeepEqual(w.Queries, []string{"Q3", "Q6", "Q12"}) {
		t.Errorf("empty spec workload = %+v, want the paper's defaults", w)
	}
	if sc.Sweep.Axis != "" || len(sc.Sweep.Points) != 0 {
		t.Errorf("empty spec has a sweep: %+v", sc.Sweep)
	}
}

// TestPartialDecode checks that present fields override defaults —
// including explicit zeros — while absent ones keep them.
func TestPartialDecode(t *testing.T) {
	sc, err := Decode([]byte(`{
		"machine": {"processors": 3, "dir_occupancy": 0},
		"workload": {"queries": ["Q6"], "scale": 0.001}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Machine.Processors != 3 {
		t.Errorf("processors = %d, want 3", sc.Machine.Processors)
	}
	if sc.Machine.DirOccupancy != 0 {
		t.Errorf("explicit dir_occupancy: 0 did not override the default")
	}
	if sc.Machine.L2Line != 64 || sc.Machine.WriteBufEntries != 16 {
		t.Errorf("absent machine fields lost their defaults: %+v", sc.Machine)
	}
	if !reflect.DeepEqual(sc.Workload.Queries, []string{"Q6"}) || sc.Workload.Scale != 0.001 {
		t.Errorf("workload overrides not applied: %+v", sc.Workload)
	}
	if sc.Workload.Seed != 12345 {
		t.Errorf("absent seed lost its default: %d", sc.Workload.Seed)
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeErrors checks the parser's rejection paths.
func TestDecodeErrors(t *testing.T) {
	for name, in := range map[string]string{
		"unknown field": `{"machine": {"cores": 4}}`,
		"type mismatch": `{"machine": {"processors": "four"}}`,
		"trailing data": `{} {"machine": {}}`,
		"not an object": `[1, 2]`,
		// replay_workers was host tuning, never spec vocabulary: the
		// spec decoder stays strict (POST /v1/jobs answers 400) so a
		// non-semantic name cannot reach a cache key.
		"replay_workers top level":   `{"replay_workers": 4}`,
		"replay_workers in machine":  `{"machine": {"replay_workers": 4}}`,
		"replay_workers in workload": `{"workload": {"replay_workers": 4}}`,
	} {
		if _, err := Decode([]byte(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

// TestValidationErrors is the field-path table: every malformed spec
// reports the JSON path of the offending field.
func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		spec string
		path string
	}{
		{"bad line size", `{"machine": {"l2_line": 100, "l1_line": 50}}`, "machine.l1_line"},
		{"non-pow2 l2 line", `{"machine": {"l2_line": 96}}`, "machine.l2_line"},
		{"zero processors", `{"machine": {"processors": 0}}`, "machine.processors"},
		{"unknown query", `{"workload": {"queries": ["Q3", "Q99"]}}`, "workload.queries[1]"},
		{"unknown warmer", `{"workload": {"warm": "Q99"}}`, "workload.warm"},
		{"bad scale", `{"workload": {"scale": -0.5}}`, "workload.scale"},
		{"empty sweep points", `{"sweep": {"axis": "line"}}`, "sweep.points"},
		{"unknown axis", `{"sweep": {"axis": "voltage", "points": [1]}}`, "sweep.axis"},
		{"points without axis", `{"sweep": {"points": [64]}}`, "sweep.axis"},
		{"invalid swept machine", `{"sweep": {"axis": "writebuf", "points": [8, 0]}}`, "sweep.points[1]"},
		{"huge cache point", `{"sweep": {"axis": "cache", "points": [2097152]}}`, "sweep.points[0]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc, err := Decode([]byte(c.spec))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			err = sc.Validate()
			if err == nil {
				t.Fatalf("spec %s validated", c.spec)
			}
			fe, ok := err.(*FieldError)
			if !ok {
				t.Fatalf("error %T is not a FieldError: %v", err, err)
			}
			if !strings.HasPrefix(fe.Path, c.path) {
				t.Errorf("error path %q, want prefix %q (msg: %s)", fe.Path, c.path, fe.Msg)
			}
		})
	}
}

// TestCanonicalAndHash checks the content address: field order and the
// Name label do not matter, every semantic field does, and the hash
// carries the format-version prefix.
func TestCanonicalAndHash(t *testing.T) {
	a, err := Decode([]byte(`{"workload": {"scale": 0.005, "queries": ["Q6"]}, "machine": {"l2_line": 128, "l1_line": 64}}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decode([]byte(`{"name": "mine", "machine": {"l1_line": 64, "l2_line": 128}, "workload": {"queries": ["Q6"], "scale": 0.005}}`))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Canonical(), b.Canonical()) {
		t.Errorf("field order / name perturbed the canonical encoding:\n%s\n%s", a.Canonical(), b.Canonical())
	}
	if a.Hash() != b.Hash() {
		t.Error("equivalent specs hash differently")
	}
	if !strings.HasPrefix(a.Hash(), "s1-") {
		t.Errorf("hash %q lacks the s1- format-version prefix", a.Hash())
	}

	perturb := map[string]func(*Scenario){
		"machine":   func(s *Scenario) { s.Machine.L2Ways = 4 },
		"sched":     func(s *Scenario) { s.Machine.BusyPerAccess = 5 },
		"queries":   func(s *Scenario) { s.Workload.Queries = []string{"Q3"} },
		"scale":     func(s *Scenario) { s.Workload.Scale = 0.004 },
		"seed":      func(s *Scenario) { s.Workload.Seed = 7 },
		"warm":      func(s *Scenario) { s.Workload.Warm = "Q6" },
		"heap":      func(s *Scenario) { s.Workload.PrivateHeapBytes = 64 << 20 },
		"axis":      func(s *Scenario) { s.Sweep = Sweep{Axis: AxisLine, Points: []int{64}} },
		"points":    func(s *Scenario) { s.Sweep = Sweep{Axis: AxisLine, Points: []int{64, 128}} },
		"costmodel": func(s *Scenario) { s.Workload.TupleBusy = 1 },
	}
	for field, mutate := range perturb {
		sc := Default()
		mutate(&sc)
		base := Default()
		if sc.Hash() == base.Hash() {
			t.Errorf("changing %s does not change the hash", field)
		}
	}

	// The canonical bytes must themselves decode to the same spec.
	re, err := Decode(a.Canonical())
	if err != nil {
		t.Fatalf("canonical bytes do not decode: %v", err)
	}
	if !bytes.Equal(re.Canonical(), a.Canonical()) {
		t.Error("canonicalization does not round-trip")
	}
}

// TestStreamDecode checks the stream-workload decode contract: phases
// replace the defaulted query list, explicitly given legacy fields
// conflict, and the canonical encoding round-trips under the "s2-"
// generation.
func TestStreamDecode(t *testing.T) {
	sc, err := Decode([]byte(`{"workload": {"phases": [
		{"flush": true, "runs": [[{"query": "Q6", "variant": 1}], []]},
		{"runs": [null, [{"query": "UF1"}, {"query": "Q3", "variant": 7}]]}
	]}}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("stream spec does not validate: %v", err)
	}
	if len(sc.Workload.Queries) != 0 || sc.Workload.Warm != "" {
		t.Errorf("defaulted legacy fields survived a stream decode: %+v", sc.Workload)
	}
	if g := sc.Generation(); g != StreamFormatVersion {
		t.Errorf("generation = %d, want %d", g, StreamFormatVersion)
	}
	if !strings.HasPrefix(sc.Hash(), "s2-") {
		t.Errorf("stream hash %q lacks the s2- prefix", sc.Hash())
	}
	if ph := sc.Workload.Phases; len(ph) != 2 || !ph[0].Flush || ph[1].Flush ||
		ph[1].Runs[1][1].Variant != 7 {
		t.Errorf("phases decoded wrong: %+v", sc.Workload.Phases)
	}

	// nil and empty run lists mean the same idle processor, so they
	// canonicalize (and therefore hash) identically.
	other := *sc
	other.Workload.Phases = append([]Phase(nil), sc.Workload.Phases...)
	other.Workload.Phases[1].Runs = [][]PhaseRun{{}, sc.Workload.Phases[1].Runs[1]}
	if sc.Hash() != other.Hash() {
		t.Error("nil vs empty idle run list perturbs the hash")
	}

	// Canonical bytes decode back to an equivalent spec (fixed point).
	re, err := Decode(sc.Canonical())
	if err != nil {
		t.Fatalf("canonical stream bytes do not decode: %v", err)
	}
	if !bytes.Equal(re.Canonical(), sc.Canonical()) {
		t.Error("stream canonicalization does not round-trip")
	}
	if err := re.Validate(); err != nil {
		t.Errorf("re-decoded stream spec invalid: %v", err)
	}

	// A legacy spec keeps its legacy generation and never mentions
	// phases in its canonical bytes.
	base := Default()
	if g := base.Generation(); g != FormatVersion {
		t.Errorf("legacy generation = %d, want %d", g, FormatVersion)
	}
	if strings.Contains(string(base.Canonical()), "phases") {
		t.Errorf("legacy canonical encoding mentions phases: %s", base.Canonical())
	}
}

// TestStreamValidation is the phase-shaped slice of the field-path
// table.
func TestStreamValidation(t *testing.T) {
	run := `[{"query": "Q6"}]`
	cases := []struct {
		name string
		spec string
		path string
	}{
		{"phases with queries", `{"workload": {"queries": ["Q6"], "phases": [{"runs": [` + run + `]}]}}`,
			"workload.queries"},
		{"phases with warm", `{"workload": {"warm": "Q6", "phases": [{"runs": [` + run + `]}]}}`,
			"workload.warm"},
		{"empty phase", `{"workload": {"phases": [{"runs": [[], []]}]}}`,
			"workload.phases[0].runs"},
		{"too many run lists", `{"machine": {"processors": 1}, "workload": {"phases": [{"runs": [` + run + `, ` + run + `]}]}}`,
			"workload.phases[0].runs"},
		{"unknown stream query", `{"workload": {"phases": [{"runs": [[{"query": "Q99"}]]}]}}`,
			"workload.phases[0].runs[0][0].query"},
		{"swept stream", `{"workload": {"phases": [{"runs": [` + run + `]}]}, "sweep": {"axis": "line", "points": [64]}}`,
			"sweep.axis"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc, err := Decode([]byte(c.spec))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			err = sc.Validate()
			if err == nil {
				t.Fatalf("spec %s validated", c.spec)
			}
			fe, ok := err.(*FieldError)
			if !ok {
				t.Fatalf("error %T is not a FieldError: %v", err, err)
			}
			if !strings.HasPrefix(fe.Path, c.path) {
				t.Errorf("error path %q, want prefix %q (msg: %s)", fe.Path, c.path, fe.Msg)
			}
		})
	}
}

// TestLegacyPhases checks the lossless legacy→stream mapping: warm
// specs become a flushed warm-up plus an unflushed measured phase,
// cold specs a single flushed phase, with the variant convention the
// hand-written experiments used (warm-up i, measured 100+i).
func TestLegacyPhases(t *testing.T) {
	cold := LegacyPhases("Q3", "", 2)
	if len(cold) != 1 || !cold[0].Flush {
		t.Fatalf("cold mapping = %+v, want one flushed phase", cold)
	}
	if r := cold[0].Runs[1]; len(r) != 1 || r[0].Query != "Q3" || r[0].Variant != 101 {
		t.Errorf("cold proc 1 = %+v, want Q3 variant 101", r)
	}

	warm := LegacyPhases("Q3", "Q12", 2)
	if len(warm) != 2 || !warm[0].Flush || warm[1].Flush {
		t.Fatalf("warm mapping = %+v, want flushed warm-up then unflushed measure", warm)
	}
	if r := warm[0].Runs[1]; r[0].Query != "Q12" || r[0].Variant != 1 {
		t.Errorf("warm-up proc 1 = %+v, want Q12 variant 1", r)
	}
	if r := warm[1].Runs[0]; r[0].Query != "Q3" || r[0].Variant != 100 {
		t.Errorf("measured proc 0 = %+v, want Q3 variant 100", r)
	}

	// The mapped form is a valid stream spec on the matching machine.
	sc := Default()
	sc.Workload.Queries = nil
	sc.Workload.Phases = LegacyPhases("Q3", "Q12", sc.Machine.Processors)
	if err := sc.Validate(); err != nil {
		t.Errorf("mapped legacy spec invalid: %v", err)
	}
}

// TestApplyAxis checks every sweep axis against the hand-written
// experiment transformations it replaces.
func TestApplyAxis(t *testing.T) {
	base := DefaultMachine()

	m := ApplyAxis(AxisLine, base, 256)
	if m.L2Line != 256 || m.L1Line != 128 {
		t.Errorf("line: L2/L1 = %d/%d, want 256/128", m.L2Line, m.L1Line)
	}
	if base.MachineConfig().WithLineSize(256) != m.MachineConfig() {
		t.Error("line axis diverges from machine.WithLineSize")
	}

	m = ApplyAxis(AxisCache, base, 1024)
	if base.MachineConfig().WithCacheSizes(1024*1024/32, 1024*1024) != m.MachineConfig() {
		t.Error("cache axis diverges from machine.WithCacheSizes")
	}

	m = ApplyAxis(AxisPrefetch, base, 8)
	if !m.PrefetchData || m.PrefetchDegree != 8 {
		t.Errorf("prefetch 8: data=%v degree=%d", m.PrefetchData, m.PrefetchDegree)
	}
	m = ApplyAxis(AxisPrefetch, m, 0)
	if m.PrefetchData {
		t.Error("prefetch 0 did not turn data prefetching off")
	}

	if m = ApplyAxis(AxisWriteBuf, base, 32); m.WriteBufEntries != 32 {
		t.Errorf("writebuf: %d entries, want 32", m.WriteBufEntries)
	}
	if m = ApplyAxis(AxisContention, base, 0); m.DirOccupancy != 0 {
		t.Errorf("contention: occupancy %d, want 0", m.DirOccupancy)
	}
}

// TestMachineConfigRoundTrip checks the machine.Config lift/lower pair.
func TestMachineConfigRoundTrip(t *testing.T) {
	cfg := machine.Baseline()
	cfg.Nodes = 7
	cfg.SnoopingBus = true
	cfg.PrefetchData = true
	if got := FromMachineConfig(cfg).MachineConfig(); got != cfg {
		t.Errorf("round trip = %+v, want %+v", got, cfg)
	}
}
