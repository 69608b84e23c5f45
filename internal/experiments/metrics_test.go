package experiments

import (
	"bytes"
	"testing"

	"repro/internal/metrics"
	"repro/internal/runner"
)

// expSample finds the dssmem_experiment_* sample for one experiment.
func expSample(t *testing.T, reg *metrics.Registry, name, exp string) metrics.Sample {
	t.Helper()
	for _, f := range reg.Snapshot() {
		if f.Name != name {
			continue
		}
		for _, s := range f.Samples {
			if s.Labels["exp"] == exp {
				return s
			}
		}
	}
	t.Fatalf("no sample %s{exp=%q}", name, exp)
	return metrics.Sample{}
}

// TestExecMetrics renders a metered experiment and checks that both the
// host-time histogram and the simulated-cycle counter saw it, while the
// rendered bytes stay identical to an unmetered Exec's.
func TestExecMetrics(t *testing.T) {
	o := testOptions(0.001)
	o.Queries = []string{"Q6"}

	reg := metrics.New()
	metered := NewExecConfig(runner.Config{Workers: 2, Metrics: reg})
	defer metered.Close()
	plain := NewExec(2)
	defer plain.Close()

	var got, want bytes.Buffer
	if err := metered.Render(&got, "fig6", o); err != nil {
		t.Fatal(err)
	}
	if err := plain.Render(&want, "fig6", o); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Error("metered render differs from unmetered render")
	}

	sec := expSample(t, reg, "dssmem_experiment_seconds", "fig6")
	if sec.Count != 1 {
		t.Errorf("experiment_seconds count = %d, want 1", sec.Count)
	}
	if sec.Sum <= 0 {
		t.Errorf("experiment_seconds sum = %v, want > 0", sec.Sum)
	}
	cyc := expSample(t, reg, "dssmem_experiment_simulated_cycles_total", "fig6")
	if cyc.Value <= 0 {
		t.Errorf("simulated cycles = %v, want > 0", cyc.Value)
	}

	// A cache-warm re-render is host-cheap but re-charges its cycles:
	// sim-time accounting is per render, not per simulation.
	if err := metered.Render(&bytes.Buffer{}, "fig6", o); err != nil {
		t.Fatal(err)
	}
	if s := expSample(t, reg, "dssmem_experiment_seconds", "fig6"); s.Count != 2 {
		t.Errorf("experiment_seconds count after re-render = %d, want 2", s.Count)
	}
	if c := expSample(t, reg, "dssmem_experiment_simulated_cycles_total", "fig6"); c.Value != 2*cyc.Value {
		t.Errorf("cycles after re-render = %v, want %v", c.Value, 2*cyc.Value)
	}

	// Failed renders observe nothing.
	if err := metered.Render(&bytes.Buffer{}, "fig99", o); err == nil {
		t.Fatal("unknown experiment rendered")
	}
	found := false
	for _, f := range reg.Snapshot() {
		if f.Name == "dssmem_experiment_seconds" {
			for _, s := range f.Samples {
				if s.Labels["exp"] == "fig99" {
					found = true
				}
			}
		}
	}
	if found {
		t.Error("failed render left a histogram sample")
	}
}

// TestSimulatingExperimentsChargeCycles: the experiments whose results
// carry no sweep or query clocks — fig12's warm pairs, the update
// stream, the query streams and the topology comparison — still charge
// the cycles they simulate, so their Mcycles/s can be computed.
func TestSimulatingExperimentsChargeCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("renders four experiments")
	}
	reg := metrics.New()
	e := NewExecConfig(runner.Config{Workers: 2, Metrics: reg})
	defer e.Close()
	for _, exp := range []string{"fig12", "update", "streams", "topology"} {
		if err := e.Render(&bytes.Buffer{}, exp, testOptions(0.001)); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if c := expSample(t, reg, "dssmem_experiment_simulated_cycles_total", exp); c.Value <= 0 {
			t.Errorf("%s charged %v simulated cycles, want > 0", exp, c.Value)
		}
	}
}
