package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// smallSizing keeps the smoke run to a few seconds: the smallest scale
// the generator supports and a handful of resubmissions.
var smallSizing = sizing{SweepScale: 0.001, StreamScale: 0.001, Jobs: 6}

func smokeHarness(t *testing.T, work string) *harness {
	t.Helper()
	return &harness{root: "..", work: work, sz: smallSizing, procs: childProcs(),
		rounds: 1, passes: 1, log: io.Discard}
}

// Every workload runs end to end through the built binaries: one
// set-up, the warm-up pass and one timed pass, every report checked
// against the first, every end-to-end metric reported and non-zero.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	work := t.TempDir()
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			res, err := smokeHarness(t, work).runWorkload(w, 7, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 || res.Passes != 1 {
				t.Fatalf("run: %+v", res)
			}
			if res.PassSimCycles <= 0 {
				t.Errorf("pass covers %v simulated cycles", res.PassSimCycles)
			}
			for _, d := range endToEnd {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Value <= 0 || m.Unit != d.Unit || m.Spread == nil {
					t.Errorf("%s = %+v", d.Name, m)
				}
			}
			for i, dg := range res.Digests {
				if len(dg) != 64 {
					t.Errorf("report %d has digest %q", i, dg)
				}
			}
		})
	}
}

// The traced run reports every per-layer metric, its exact counts are
// non-zero and repeat, and the spans file holds the call tree.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	t.Parallel()
	w, _ := workloadByName("stream_update")
	work := t.TempDir()
	h := smokeHarness(t, work)
	res, err := h.runWorkload(w, 7, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("run: %+v", res)
	}
	for _, d := range perLayer {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("%s missing: %+v", d.Name, m)
		}
		if d.Exact && m.Value <= 0 {
			t.Errorf("exact count %s = %v", d.Name, m.Value)
		}
	}
	for _, name := range []string{"stage.unlabelled_cpu_s", "core.stream_record_ms", "core.live_update_ns_per_event",
		"machine.read_hit_ns", "sched.live_step_ns", "runner.disk_hit_us", "wal.append_fsync_us", "trace.decode_ns_per_event"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v on stream_update", name, res.Metrics[name].Value)
		}
	}

	path := filepath.Join(work, "spans.json")
	if err := h.spans.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
		if s.End < s.Start || s.Self < 0 || s.Self > s.End-s.Start {
			t.Errorf("span %+v", s)
		}
	}
	for _, want := range []string{"run stream_update", "setup", "pass", "probes", "core.new_system", "core.stream_record", "machine.read_hit"} {
		if !names[want] {
			t.Errorf("no span named %q", want)
		}
	}
}
