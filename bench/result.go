package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef names one metric; the same table is in BENCHMARK.json (a
// test keeps the two equal).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median a later change may lose; end-to-end only
	Exact  bool    // a count that must repeat exactly across runs and commits
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them with the same definition, from untraced passes.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_mcycles_per_s", Unit: "Mcycles/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

// perLayer are the single-layer metrics of the traced run, named
// <module>.<metric>. A metric that does not apply to a workload reads 0
// there (the cluster timings on the CLI workloads, the stream probes on
// the sweeps).
var perLayer = []metricDef{
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},

	{Name: "stage.capture_cpu_s", Unit: "s", Better: "lower"},
	{Name: "stage.decode_cpu_s", Unit: "s", Better: "lower"},
	{Name: "stage.replay_cpu_s", Unit: "s", Better: "lower"},
	{Name: "stage.unlabelled_cpu_s", Unit: "s", Better: "lower"},

	{Name: "core.new_system_ms", Unit: "ms", Better: "lower"},
	{Name: "core.record_run_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "core.capture_self_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "core.replay_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "core.replay_mevents_per_s", Unit: "Mevents/s", Better: "higher"},
	{Name: "core.replay_streamed_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "core.replay_allocs_per_mevent", Unit: "count", Better: "lower"},
	{Name: "core.replay_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "core.stream_record_ms", Unit: "ms", Better: "lower"},
	{Name: "core.stream_replay_ms", Unit: "ms", Better: "lower"},
	{Name: "core.live_update_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "core.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.sim_cycles", Unit: "count", Better: "lower", Exact: true},

	{Name: "machine.l1_misses", Unit: "count", Better: "lower", Exact: true},
	{Name: "machine.l2_misses", Unit: "count", Better: "lower", Exact: true},
	{Name: "machine.l1_miss_rate", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "machine.l2_miss_rate", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "machine.read_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "machine.read_l2hit_ns", Unit: "ns", Better: "lower"},
	{Name: "machine.read_miss_local_ns", Unit: "ns", Better: "lower"},
	{Name: "machine.read_miss_remote_ns", Unit: "ns", Better: "lower"},
	{Name: "machine.write_ns", Unit: "ns", Better: "lower"},
	{Name: "machine.write_invalidate_ns", Unit: "ns", Better: "lower"},
	{Name: "machine.sync_ns", Unit: "ns", Better: "lower"},

	{Name: "trace.decode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "trace.marshal_ms_per_mb", Unit: "ms/MB", Better: "lower"},
	{Name: "trace.unmarshal_ms_per_mb", Unit: "ms/MB", Better: "lower"},
	{Name: "trace.open_blob_ms_per_mb", Unit: "ms/MB", Better: "lower"},
	{Name: "trace.bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "trace.recorded_bytes", Unit: "B", Better: "lower"},
	{Name: "trace.captures", Unit: "count", Better: "lower"},
	{Name: "trace.replays", Unit: "count", Better: "lower"},

	{Name: "sched.live_step_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.spin_uncontended_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.spin_contended_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.epoch_parallel_windows", Unit: "count", Better: "higher"},
	{Name: "sched.epoch_serial_windows", Unit: "count", Better: "lower"},
	{Name: "sched.epoch_aborts", Unit: "count", Better: "lower"},
	{Name: "sched.epoch_parallel_ratio", Unit: "ratio", Better: "higher"},

	{Name: "runner.jobs_completed", Unit: "count", Better: "lower"},
	{Name: "runner.cache_hits", Unit: "count", Better: "higher"},
	{Name: "runner.cache_misses", Unit: "count", Better: "lower"},
	{Name: "runner.busy_s", Unit: "s", Better: "lower"},
	{Name: "runner.utilization", Unit: "ratio", Better: "higher"},
	{Name: "runner.job_overhead_us", Unit: "us", Better: "lower"},
	{Name: "runner.mem_hit_us", Unit: "us", Better: "lower"},
	{Name: "runner.disk_hit_us", Unit: "us", Better: "lower"},

	{Name: "scenario.decode_hash_us", Unit: "us", Better: "lower"},
	{Name: "experiments.plan_us", Unit: "us", Better: "lower"},
	{Name: "experiments.render_cached_ms", Unit: "ms", Better: "lower"},

	{Name: "blobstore.put_ms_per_mb", Unit: "ms/MB", Better: "lower"},
	{Name: "blobstore.get_ms_per_mb", Unit: "ms/MB", Better: "lower"},

	{Name: "wal.append_fsync_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_group_us", Unit: "us", Better: "lower"},
	{Name: "wal.open_replay_us_per_record", Unit: "us", Better: "lower"},
	{Name: "wal.appends_per_job", Unit: "count", Better: "lower"},
	{Name: "wal.fsyncs_per_job", Unit: "count", Better: "lower"},

	{Name: "cluster.warm_job_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.warm_job_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "cluster.cold_line_job_s", Unit: "s", Better: "lower"},
	{Name: "cluster.cold_cache_job_s", Unit: "s", Better: "lower"},
	{Name: "cluster.recovery_ms", Unit: "ms", Better: "lower"},
	{Name: "dssmemd.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "dssmemd.http_req_us", Unit: "us", Better: "lower"},
}

// measured is one metric's value in a result file. End-to-end metrics
// carry the quartiles and sample count of the passes behind the median;
// per-layer metrics carry only the value.
type measured struct {
	Unit   string   `json:"unit"`
	Value  float64  `json:"value"`
	Spread *summary `json:"spread,omitempty"`
}

// runResult is one workload measured once, traced or not.
type runResult struct {
	Workload  string              `json:"workload"`
	Seed      uint64              `json:"seed"`
	Traced    bool                `json:"traced"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Passes    int                 `json:"passes"`
	Metrics   map[string]measured `json:"metrics"`
	// PassSimCycles is the exact number of simulated cycles the reports
	// of one pass cover, from the program's own counter.
	PassSimCycles float64  `json:"pass_sim_cycles"`
	Digests       []string `json:"digests"`
	Problems      []string `json:"problems,omitempty"`
}

// provenance is the host fingerprint every result file carries.
type provenance struct {
	Time        string  `json:"time"`
	NumCPU      int     `json:"num_cpu"`
	ChildProcs  int     `json:"child_gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	GOOS        string  `json:"goos"`
	GOARCH      string  `json:"goarch"`
	Commit      string  `json:"commit"`
	Dirty       bool    `json:"dirty"`
	Kernel      string  `json:"kernel"`
	StateDirFS  string  `json:"state_dir_fs"`
	Seed        uint64  `json:"seed"`
	Seconds     float64 `json:"seconds"`
	SetupRounds int     `json:"setup_rounds"`
	Sizing      sizing  `json:"sizing"`
	Loop        string  `json:"loop"`
}

func gatherProvenance(h *harness, seed uint64, seconds float64) provenance {
	p := provenance{
		Time:        time.Now().UTC().Format(time.RFC3339),
		NumCPU:      runtime.NumCPU(),
		ChildProcs:  h.procs,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Commit:      "unknown",
		Kernel:      "unknown",
		StateDirFS:  fsType(h.work),
		Seed:        seed,
		Seconds:     seconds,
		SetupRounds: h.rounds,
		Sizing:      h.sz,
		Loop:        "closed, 1 client",
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = h.root
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	if rev, err := git("rev-parse", "HEAD"); err == nil {
		p.Commit = rev
		if st, err := git("status", "--porcelain"); err == nil {
			p.Dirty = st != ""
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(b))
	}
	return p
}

// resultFile is what every invocation writes to -out: provenance plus
// each workload's untraced and traced run (whichever were made).
type resultFile struct {
	Provenance provenance            `json:"provenance"`
	EndToEnd   map[string]*runResult `json:"end_to_end"`
	PerLayer   map[string]*runResult `json:"per_layer"`
}

func (f *resultFile) add(r *runResult) {
	if r.Traced {
		f.PerLayer[r.Workload] = r
	} else {
		f.EndToEnd[r.Workload] = r
	}
}

func (f *resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// pins is bench/expected.json: for one seed and sizing, the digest of
// every report and the exact counts of every workload.
type pins struct {
	Seed      uint64                  `json:"seed"`
	Sizing    sizing                  `json:"sizing"`
	Workloads map[string]workloadPins `json:"workloads"`
}

type workloadPins struct {
	// Reports maps a spec name to the sha256 of its rendered report.
	Reports       map[string]string  `json:"reports"`
	PassSimCycles float64            `json:"pass_sim_cycles"`
	Exact         map[string]float64 `json:"exact"`
}

//go:embed expected.json
var expectedJSON []byte

// pinned returns the pins of workload w when seed and sizing are the
// pinned ones; otherwise nothing is pinned and passes are checked
// against the first pass.
func pinned(w string, seed uint64, sz sizing) (workloadPins, bool) {
	var p pins
	if err := json.Unmarshal(expectedJSON, &p); err != nil {
		return workloadPins{}, false
	}
	if p.Seed != seed || p.Sizing != sz {
		return workloadPins{}, false
	}
	wp, ok := p.Workloads[w]
	return wp, ok
}
