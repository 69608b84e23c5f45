package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// A run repeats the set-up setupRounds times and reports the median as
// setup_s, so one cold build or slow disk does not decide it; and it
// times at least minPasses passes, whatever --seconds says.
const (
	setupRounds = 3
	minPasses   = 3
)

// runWorkload measures one workload once. Untraced, it times passes for
// about `seconds` and reports the end-to-end metrics. Traced, it times
// plain passes for half of that, makes one traced pass that collects
// the child's own published outputs, runs the in-process probes, and
// reports the per-layer metrics.
func (h *harness) runWorkload(w workload, seed uint64, seconds float64, traced bool) (*runResult, error) {
	res := &runResult{Workload: w.Name, Seed: seed, Traced: traced, Metrics: map[string]measured{}}
	if traced {
		h.spans = newSpanLog()
	} else {
		h.spans = nil
	}
	root := h.spans.begin("run "+w.Name, 0)
	defer h.spans.end(root)
	// A fresh directory per run: a set-up that found an earlier run's
	// binaries or primed state would measure nothing.
	dir, err := os.MkdirTemp(h.work, w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var st *staged
	var setups []float64
	for i := 0; i < h.rounds; i++ {
		d := filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		s, took, err := h.setup(w, seed, d, root)
		if err != nil {
			return nil, err
		}
		if st != nil {
			os.RemoveAll(filepath.Dir(st.bin))
		}
		st = s
		setups = append(setups, took.Seconds())
		h.logf("%s: set-up %d/%d took %.2fs", w.Name, i+1, h.rounds, took.Seconds())
	}

	// What every report must hash to: the pins for the pinned seed,
	// otherwise whatever the first pass produced.
	pin, isPinned := pinned(w.Name, seed, h.sz)
	if h.unpinned {
		pin, isPinned = workloadPins{}, false
	}
	want := make([]string, len(st.specs))
	if isPinned {
		for i, s := range st.specs {
			want[i] = pin.Reports[s.Name]
		}
	}
	record := func(p pass) {
		res.Attempted += p.attempted
		res.Failed += p.failed
		res.Problems = append(res.Problems, p.problems...)
		for i, d := range p.digests {
			if want[i] == "" {
				want[i] = d
			}
		}
	}

	passNo := 0
	onePass := func(mode passMode) pass {
		pd := filepath.Join(dir, fmt.Sprintf("pass-%d", passNo))
		passNo++
		if err := os.MkdirAll(pd, 0o755); err != nil {
			return pass{attempted: 1, failed: 1, problems: []string{err.Error()}}
		}
		defer os.RemoveAll(pd)
		if w.Daemon {
			return h.daemonPass(st, want, pd, mode.metrics, root)
		}
		return h.cliPass(st, mode, want, pd, root)
	}

	// Warm-up pass, untimed. On the CLI workloads it also asks the child
	// for its metrics snapshot, which holds the simulated cycles the
	// reports cover; the daemon's priming jobs established the same.
	if w.Daemon {
		for i, d := range st.prime.digests {
			if want[i] == "" {
				want[i] = d
			} else if want[i] != d {
				res.Failed++
				res.Problems = append(res.Problems, fmt.Sprintf("%s: cold report digest %s, want %s",
					st.specs[i].Name, d[:12], want[i][:12]))
			}
		}
		res.Attempted += len(st.prime.digests)
		for k := 0; k < h.sz.Jobs; k++ {
			res.PassSimCycles += st.prime.cycles[k%len(st.prime.cycles)]
		}
		record(onePass(passMode{}))
	} else {
		p := onePass(passMode{metrics: true})
		record(p)
		res.PassSimCycles = p.counters.get(cyclesCounter)
	}
	if res.PassSimCycles <= 0 {
		res.Failed++
		res.Problems = append(res.Problems, "no simulated cycles reported")
	}
	if isPinned && pin.PassSimCycles != res.PassSimCycles {
		res.Failed++
		res.Problems = append(res.Problems, fmt.Sprintf("simulated cycles per pass %.0f, pinned %.0f",
			res.PassSimCycles, pin.PassSimCycles))
	}

	budget := seconds
	if traced {
		budget = seconds / 2
	}
	var walls, cpus, rates, rss []float64
	t0 := time.Now()
	for len(walls) < h.passes || time.Since(t0).Seconds() < budget {
		p := onePass(passMode{})
		record(p)
		walls = append(walls, p.wall)
		cpus = append(cpus, p.cpu)
		rss = append(rss, p.rssMB)
		rates = append(rates, res.PassSimCycles/1e6/p.wall)
	}
	res.Passes = len(walls)
	res.Digests = want

	if !traced {
		samples := map[string][]float64{"setup_s": setups, "wall_s": walls, "cpu_s": cpus,
			"sim_mcycles_per_s": rates, "peak_rss_mb": rss}
		for _, d := range endToEnd {
			s := summarize(samples[d.Name])
			res.Metrics[d.Name] = measured{Unit: d.Unit, Value: s.Median, Spread: &s}
		}
	} else {
		layer := map[string]float64{}
		tp := onePass(passMode{metrics: true, profile: true})
		record(tp)
		layer["bench.trace_overhead_ratio"] = tp.wall/median(walls) - 1
		if n := len(tp.daemon.jobMS); n > 0 {
			tailP := highestPercentile(n)
			h.logf("%s: warm job latency median %.3f ms, p%g %.3f ms, %d jobs", w.Name,
				median(tp.daemon.jobMS), tailP, percentile(tp.daemon.jobMS, tailP), n)
		}
		childMetrics(layer, w, st, tp)
		pid := h.spans.begin("probes", root)
		if err := h.probes(layer, w, st, filepath.Join(dir, "probes"), pid); err != nil {
			res.Failed++
			res.Problems = append(res.Problems, "probes: "+err.Error())
		}
		h.spans.end(pid)
		for _, d := range perLayer {
			v := layer[d.Name]
			res.Metrics[d.Name] = measured{Unit: d.Unit, Value: v}
			if want, ok := pin.Exact[d.Name]; isPinned && d.Exact && ok && want != v {
				res.Failed++
				res.Problems = append(res.Problems, fmt.Sprintf("%s = %v, pinned %v", d.Name, v, want))
			}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// childMetrics turns what the traced pass's children published about
// themselves (metrics snapshot, stage-labelled CPU profile, and for the
// daemon the client-side timings) into per-layer metrics.
func childMetrics(m map[string]float64, w workload, st *staged, p pass) {
	c := p.counters
	labelled := 0.0
	for _, stage := range []string{"capture", "decode", "replay"} {
		m["stage."+stage+"_cpu_s"] = p.stageCPU[stage]
		labelled += p.stageCPU[stage]
	}
	// The daemon publishes no profile file; with zero captures and
	// replays (checked below by count) none of its CPU is labelled.
	if un := p.cpu - labelled; un > 0 {
		m["stage.unlabelled_cpu_s"] = un
	}
	m["trace.recorded_bytes"] = c.get("dssmem_trace_recorded_bytes")
	m["trace.captures"] = c.get("dssmem_trace_captures_total")
	m["trace.replays"] = c.get("dssmem_trace_replays_total")

	par := c.get("dssmem_replay_epoch_parallel_total")
	ser := c.get("dssmem_replay_epoch_serial_total")
	m["sched.epoch_parallel_windows"] = par
	m["sched.epoch_serial_windows"] = ser
	m["sched.epoch_aborts"] = c.get("dssmem_replay_epoch_aborts_total")
	if par+ser > 0 {
		m["sched.epoch_parallel_ratio"] = par / (par + ser)
	}

	m["runner.jobs_completed"] = c.get("dssmem_runner_jobs_completed_total")
	m["runner.cache_hits"] = c.get("dssmem_cache_hits_total")
	m["runner.cache_misses"] = c.get("dssmem_cache_misses_total")
	busy := c.get("dssmem_runner_busy_seconds_total")
	m["runner.busy_s"] = busy
	// Every child reports its own pool size and the CLI children ran one
	// after another, so their gauges sum to workers x children.
	workers := c.get("dssmem_runner_workers")
	if !w.Daemon {
		workers /= float64(len(st.specs))
	}
	if workers > 0 && p.wall > 0 {
		m["runner.utilization"] = busy / (workers * p.wall)
	}

	if !w.Daemon {
		return
	}
	jobs := float64(len(p.daemon.jobMS))
	m["cluster.warm_job_ms_p50"] = percentile(p.daemon.jobMS, 50)
	m["cluster.warm_job_ms_p95"] = percentile(p.daemon.jobMS, 95)
	m["cluster.cold_line_job_s"] = st.prime.coldSec[0]
	m["cluster.cold_cache_job_s"] = st.prime.coldSec[1]
	m["cluster.recovery_ms"] = p.daemon.recoveryMS
	m["dssmemd.drain_ms"] = p.daemon.drainMS
	m["dssmemd.http_req_us"] = p.daemon.httpUS
	if jobs > 0 {
		m["wal.appends_per_job"] = c.get("dssmem_wal_appends_total") / jobs
		m["wal.fsyncs_per_job"] = c.get("dssmem_wal_fsyncs_total") / jobs
	}
}
