package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/blobstore"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/simm"
	"repro/internal/wal"
)

// The probes in this file time one layer's public functions on
// synthetic inputs built to take one path through it. They do not
// depend on the workload; every traced run repeats them, so a layer's
// cost can be read beside any workload's end-to-end numbers.

// probeRounds is how often a timed loop is repeated; the median round
// is reported.
const probeRounds = 3

// timeOp runs f (n operations) probeRounds times inside one span and
// returns the median nanoseconds per operation.
func (h *harness) timeOp(name string, parent, n int, f func()) float64 {
	id := h.spans.begin(name, parent)
	defer h.spans.end(id)
	var per []float64
	for r := 0; r < probeRounds; r++ {
		t0 := time.Now()
		f()
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}

// machineProbes times machine.ReadCat/WriteCat/Sync on address streams
// that each take one path: primary hit, secondary hit, local-memory
// miss, remote miss, buffered write, write that invalidates sharers,
// and a synchronizing access that ping-pongs between two nodes.
func (h *harness) machineProbes(m map[string]float64, parent int) error {
	const n = 200000
	cfg := machine.Baseline()
	rig := func() (*machine.Machine, simm.Addr, simm.Addr, error) {
		mem := simm.New(cfg.Nodes)
		local := mem.AllocRegion("local", 32<<20, simm.CatData, 0)
		remote := mem.AllocRegion("remote", 32<<20, simm.CatData, 1)
		mach, err := machine.New(cfg, mem)
		return mach, local.Base, remote.Base, err
	}
	mach, local, remote, err := rig()
	if err != nil {
		return err
	}
	now := int64(0)
	mach.ReadCat(0, local, 8, now, simm.CatData)
	m["machine.read_hit_ns"] = h.timeOp("machine.read_hit", parent, n, func() {
		for i := 0; i < n; i++ {
			now += 4
			mach.ReadCat(0, local, 8, now, simm.CatData)
		}
	})
	// 64 KB cycled at primary-line stride: sixteen times the 4 KB
	// primary cache, half the 128 KB secondary one.
	l2walk := func() {
		for i := 0; i < n; i++ {
			now += 20
			mach.ReadCat(0, local+simm.Addr((i*cfg.L1Line)%(64<<10)), 8, now, simm.CatData)
		}
	}
	l2walk()
	m["machine.read_l2hit_ns"] = h.timeOp("machine.read_l2hit", parent, n, l2walk)

	// One secondary line per access over 32 MB: every access misses both
	// caches and goes to the region's home memory.
	stream := func(base simm.Addr) func() {
		off := 0
		return func() {
			for i := 0; i < n; i++ {
				now += 400
				mach.ReadCat(0, base+simm.Addr(off), 8, now, simm.CatData)
				off = (off + cfg.L2Line) % (32 << 20)
			}
		}
	}
	m["machine.read_miss_local_ns"] = h.timeOp("machine.read_miss_local", parent, n, stream(local))
	m["machine.read_miss_remote_ns"] = h.timeOp("machine.read_miss_remote", parent, n, stream(remote))

	if mach, local, _, err = rig(); err != nil {
		return err
	}
	now = 0
	woff := 0
	m["machine.write_ns"] = h.timeOp("machine.write", parent, n, func() {
		for i := 0; i < n; i++ {
			// Advance by the reported stall, as the engine does, so
			// write-buffer drains keep up.
			r := mach.WriteCat(0, local+simm.Addr(woff), 8, now, simm.CatData)
			now += 100 + r.Stall
			woff = (woff + cfg.L2Line) % (32 << 20)
		}
	})
	m["machine.write_invalidate_ns"] = h.timeOp("machine.write_invalidate", parent, n, func() {
		for i := 0; i < n; i++ {
			now += 2000
			mach.ReadCat(0, local, 8, now, simm.CatData)
			mach.ReadCat(1, local, 8, now+500, simm.CatData)
			mach.WriteCat(2, local, 8, now+1000, simm.CatData)
		}
	})
	m["machine.sync_ns"] = h.timeOp("machine.sync", parent, n, func() {
		for i := 0; i < n; i++ {
			now += 1000
			mach.Sync(i%2, local, now)
		}
	})
	return nil
}

// schedProbes times the live (goroutine baton) driver: four bodies of
// traced reads, then spinlock acquire/release pairs alone and under
// four-way contention.
func (h *harness) schedProbes(m map[string]float64, parent int) error {
	const n = 200000
	rig := func() (*sched.Engine, simm.Addr, sched.SpinLock, error) {
		cfg := machine.Baseline()
		mem := simm.New(cfg.Nodes)
		data := mem.AllocRegion("data", 16<<20, simm.CatData, simm.AnyNode)
		lock := mem.AllocRegion("lock", simm.PageSize, simm.CatLockSLock, 0)
		mach, err := machine.New(cfg, mem)
		if err != nil {
			return nil, 0, sched.SpinLock{}, err
		}
		return sched.New(sched.DefaultConfig(), mem, mach), data.Base, sched.SpinLock{Addr: lock.Base}, nil
	}
	eng, data, lock, err := rig()
	if err != nil {
		return err
	}
	four := func(body func(p *sched.Proc, k int)) []func(*sched.Proc) {
		bodies := make([]func(*sched.Proc), 4)
		for k := range bodies {
			k := k
			bodies[k] = func(p *sched.Proc) { body(p, k) }
		}
		return bodies
	}
	m["sched.live_step_ns"] = h.timeOp("sched.live_step", parent, n, func() {
		eng.Run(four(func(p *sched.Proc, k int) {
			for i := 0; i < n/4; i++ {
				p.Read64(data + simm.Addr(((i+k*1000)*8)%(8<<20)))
			}
		}))
	})
	m["sched.spin_uncontended_ns"] = h.timeOp("sched.spin_uncontended", parent, n/4, func() {
		eng.Run([]func(*sched.Proc){func(p *sched.Proc) {
			for i := 0; i < n/4; i++ {
				p.Acquire(lock)
				p.Release(lock)
			}
		}, nil, nil, nil})
	})
	m["sched.spin_contended_ns"] = h.timeOp("sched.spin_contended", parent, n/4, func() {
		eng.Run(four(func(p *sched.Proc, k int) {
			for i := 0; i < n/16; i++ {
				p.Acquire(lock)
				p.Busy(10)
				p.Release(lock)
			}
		}))
	})
	return nil
}

// runnerProbes times the job pool itself: jobs with empty bodies, then
// the same cacheable jobs answered from the memory tier, then from the
// disk tier by a fresh pool over the same directory.
func (h *harness) runnerProbes(m map[string]float64, dir string, parent int) error {
	const n = 500
	ctx := context.Background()
	jobs := func(noCache bool) []*runner.Job {
		out := make([]*runner.Job, n)
		for i := range out {
			out[i] = &runner.Job{
				Name: "probe", Mode: "bench-probe", Spec: scenario.Default(),
				Extra: []string{fmt.Sprint(i)}, NoCache: noCache,
				Body: func(*runner.Ctx) (interface{}, error) { return &core.Report{Rows: []int{1}}, nil },
			}
		}
		return out
	}
	var runErr error
	runAll := func(p *runner.Pool, noCache bool) func() {
		return func() {
			if _, err := p.RunAll(ctx, jobs(noCache)); err != nil {
				runErr = err
			}
		}
	}
	pool := runner.New(runner.Config{})
	m["runner.job_overhead_us"] = h.timeOp("runner.job_overhead", parent, n, runAll(pool, true)) / 1e3
	pool.Close()

	cacheDir := filepath.Join(dir, "runner-cache")
	if err := runner.ValidateCacheDir(cacheDir); err != nil {
		return err
	}
	pool = runner.New(runner.Config{CacheDir: cacheDir})
	runAll(pool, false)() // fill both tiers
	m["runner.mem_hit_us"] = h.timeOp("runner.mem_hit", parent, n, runAll(pool, false)) / 1e3
	pool.Close()

	// Each round needs a pool whose memory tier is empty.
	id := h.spans.begin("runner.disk_hit", parent)
	var per []float64
	for r := 0; r < probeRounds; r++ {
		pool = runner.New(runner.Config{CacheDir: cacheDir})
		t0 := time.Now()
		runAll(pool, false)()
		per = append(per, float64(time.Since(t0).Microseconds())/n)
		if hits := pool.Stats().CacheHits; hits != n && runErr == nil {
			runErr = fmt.Errorf("runner disk-tier probe: %d cache hits of %d", hits, n)
		}
		pool.Close()
	}
	h.spans.end(id)
	m["runner.disk_hit_us"] = median(per)
	return runErr
}

// specProbes times the spec layer on the workload's own first spec:
// decode + validate + hash, planning into point jobs, and a render
// answered wholly from the result cache.
func (h *harness) specProbes(m map[string]float64, spec []byte, parent int) error {
	const n = 200
	var perr error
	m["scenario.decode_hash_us"] = h.timeOp("scenario.decode_hash", parent, n, func() {
		for i := 0; i < n; i++ {
			sc, err := scenario.Decode(spec)
			if err == nil {
				err = sc.Validate()
			}
			if err != nil {
				perr = err
				return
			}
			_ = sc.Hash()
		}
	}) / 1e3
	if perr != nil {
		return perr
	}
	sc, _ := scenario.Decode(spec)
	m["experiments.plan_us"] = h.timeOp("experiments.plan", parent, n, func() {
		for i := 0; i < n; i++ {
			experiments.PlanScenario(*sc)
		}
	}) / 1e3

	exec := experiments.NewExecConfig(runner.Config{})
	defer exec.Close()
	var first strings.Builder
	id := h.spans.begin("experiments.render_cold", parent)
	err := exec.RenderScenario(&first, *sc)
	h.spans.end(id)
	if err != nil {
		return err
	}
	const renders = 20
	m["experiments.render_cached_ms"] = h.timeOp("experiments.render_cached", parent, renders, func() {
		for i := 0; i < renders; i++ {
			var b strings.Builder
			if err := exec.RenderScenario(&b, *sc); err != nil {
				perr = err
			} else if b.String() != first.String() {
				perr = fmt.Errorf("cached render differs from the first render")
			}
		}
	}) / 1e6
	return perr
}

// blobProbes times the directory blob store on one trace-sized blob.
func (h *harness) blobProbes(m map[string]float64, blob []byte, dir string, parent int) error {
	store := blobstore.NewLocalDir()
	bdir := filepath.Join(dir, "blobs")
	if err := runner.ValidateCacheDir(bdir); err != nil {
		return err
	}
	if err := store.Mount(blobstore.NSTrace, bdir, ".trace"); err != nil {
		return err
	}
	mb := float64(len(blob)) / (1 << 20)
	const n = 3
	var perr error
	round := 0
	m["blobstore.put_ms_per_mb"] = h.timeOp("blobstore.put", parent, n, func() {
		for i := 0; i < n; i++ {
			if err := store.Put(blobstore.NSTrace, fmt.Sprintf("probe-%d-%d", round, i), blob); err != nil {
				perr = err
			}
		}
		round++
	}) / 1e6 / mb
	m["blobstore.get_ms_per_mb"] = h.timeOp("blobstore.get", parent, n, func() {
		for i := 0; i < n; i++ {
			b, err := store.Get(blobstore.NSTrace, fmt.Sprintf("probe-0-%d", i))
			if err == nil && len(b) != len(blob) {
				err = fmt.Errorf("blob read back %d bytes of %d", len(b), len(blob))
			}
			if err != nil {
				perr = err
			}
		}
	}) / 1e6 / mb
	return perr
}

// walProbes times the write-ahead log: appends that each fsync,
// appends from eight writers sharing fsyncs inside a group-commit
// window, and reopening the log (replaying every record).
func (h *harness) walProbes(m map[string]float64, dir string, parent int) error {
	const n = 256
	payload := make([]byte, 1024)
	noReplay := func([]byte) error { return nil }

	var perr error
	round := 0
	m["wal.append_fsync_us"] = h.timeOp("wal.append_fsync", parent, n, func() {
		log, err := wal.Open(wal.Options{Dir: filepath.Join(dir, fmt.Sprintf("wal-sync-%d", round))}, noReplay)
		round++
		if err != nil {
			perr = err
			return
		}
		defer log.Close()
		for i := 0; i < n; i++ {
			if err := log.Append(payload); err != nil {
				perr = err
				return
			}
		}
	}) / 1e3
	if perr != nil {
		return perr
	}

	m["wal.append_group_us"] = h.timeOp("wal.append_group", parent, n, func() {
		log, err := wal.Open(wal.Options{Dir: filepath.Join(dir, fmt.Sprintf("wal-group-%d", round)),
			SyncWindow: 500 * time.Microsecond}, noReplay)
		round++
		if err != nil {
			perr = err
			return
		}
		defer log.Close()
		var wg sync.WaitGroup
		var mu sync.Mutex
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n/8; i++ {
					if err := log.Append(payload); err != nil {
						mu.Lock()
						perr = err
						mu.Unlock()
						return
					}
				}
			}()
		}
		wg.Wait()
	}) / 1e3
	if perr != nil {
		return perr
	}

	m["wal.open_replay_us_per_record"] = h.timeOp("wal.open_replay", parent, n, func() {
		seen := 0
		log, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal-sync-0")},
			func([]byte) error { seen++; return nil })
		if err != nil {
			perr = err
			return
		}
		log.Close()
		if seen != n {
			perr = fmt.Errorf("wal reopen replayed %d records of %d", seen, n)
		}
	}) / 1e3
	return perr
}
