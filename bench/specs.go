package main

import (
	"encoding/json"

	"repro/internal/scenario"
)

// defaultSeed is the seed bench/expected.json pins digests for.
const defaultSeed = 12345

// sizing fixes how much work one pass is. The values are chosen so a
// pass takes about two seconds on a 2-core host: the builder's run cap
// (about 35 s a run, set-up included) leaves room for five or six
// passes, and medians need that many.
type sizing struct {
	SweepScale  float64 `json:"sweep_scale"`  // seq_sweep, idx_sweep, warm_resubmit
	StreamScale float64 `json:"stream_scale"` // stream_update
	Jobs        int     `json:"jobs"`         // K: resubmissions in one warm_resubmit pass
}

var defaultSizing = sizing{SweepScale: 0.002, StreamScale: 0.004, Jobs: 1000}

var (
	linePoints  = []int{16, 32, 64, 128, 256}
	cachePoints = []int{128, 512, 2048, 8192}
)

// specFile is one generated input: the programs see only these bytes.
type specFile struct {
	Name string
	Body []byte
}

// workload is one set of inputs the benchmark runs. A pass renders
// every spec once (CLI workloads: one fresh dssmem process per spec;
// daemon workload: K resubmissions alternating the specs).
type workload struct {
	Name   string
	Why    string
	Daemon bool
	Specs  func(sz sizing, seed uint64) []specFile
}

var workloads = []workload{
	{
		Name: "seq_sweep",
		Why:  "Sequential queries Q6+Q12 over a line and a cache sweep: record once, replay many; events are mostly L1 hits, so the hit path, trace decode and per-event driver cost dominate",
		Specs: func(sz sizing, seed uint64) []specFile {
			return sweepSpecs("seq", []string{"Q6", "Q12"}, sz.SweepScale, seed)
		},
	},
	{
		Name: "idx_sweep",
		Why:  "Index queries Q3+Q5+Q10 over the same sweeps: misses on indices and lock metadata, so the L2/directory/coherence miss path, spin and lock-manager replay dominate",
		Specs: func(sz sizing, seed uint64) []specFile {
			return sweepSpecs("idx", []string{"Q3", "Q5", "Q10"}, sz.SweepScale, seed)
		},
	},
	{
		Name: "stream_update",
		Why:  "One 6-phase stream with UF1/UF2 beside reads: live execution on the goroutine scheduler, capture and blob marshalling; guards anything that speeds replay at their cost",
		Specs: func(sz sizing, seed uint64) []specFile {
			return []specFile{{Name: "stream", Body: streamSpec(sz.StreamScale, seed)}}
		},
	},
	{
		Name:   "warm_resubmit",
		Why:    "dssmemd resubmissions served from cache: no simulation, so spec decode+hash, cache tiers, job manager, WAL, JSON and HTTP do all the work; simulator changes must not move it",
		Daemon: true,
		Specs: func(sz sizing, seed uint64) []specFile {
			return sweepSpecs("seq", []string{"Q6", "Q12"}, sz.SweepScale, seed)
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// splitmix is the seed expander: a fixed, version-independent sequence
// per seed.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func encodeSpec(sc scenario.Scenario) []byte {
	b, err := json.MarshalIndent(sc, "", " ")
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return append(b, '\n')
}

// sweepSpecs is the paper's methodology as two specs: the same queries
// over a line-size sweep and a cache-size sweep. The seed is the
// database generation seed.
func sweepSpecs(prefix string, queries []string, scale float64, seed uint64) []specFile {
	mk := func(axis string, points []int) specFile {
		sc := scenario.Default()
		sc.Name = prefix + "_" + axis
		sc.Workload.Queries = queries
		sc.Workload.Scale = scale
		sc.Workload.Seed = seed
		sc.Sweep = scenario.Sweep{Axis: axis, Points: points}
		return specFile{Name: sc.Name, Body: encodeSpec(sc)}
	}
	return []specFile{mk(scenario.AxisLine, linePoints), mk(scenario.AxisCache, cachePoints)}
}

// streamSpec is the 6-phase read/update stream. The seed generates the
// database and every run's predicate variant.
func streamSpec(scale float64, seed uint64) []byte {
	rng := splitmix(seed)
	phase := func(flush bool, chains ...[]string) scenario.Phase {
		ph := scenario.Phase{Flush: flush}
		for _, chain := range chains {
			var runs []scenario.PhaseRun
			for _, q := range chain {
				runs = append(runs, scenario.PhaseRun{Query: q, Variant: rng.next() % 1000})
			}
			ph.Runs = append(ph.Runs, runs)
		}
		return ph
	}
	one := func(qs ...string) [][]string {
		out := make([][]string, len(qs))
		for i, q := range qs {
			out[i] = []string{q}
		}
		return out
	}
	sc := scenario.Default()
	sc.Name = "stream"
	sc.Workload.Queries = nil
	sc.Workload.Scale = scale
	sc.Workload.Seed = seed
	sc.Workload.Phases = []scenario.Phase{
		phase(true, one("Q6", "Q6", "Q6", "Q6")...),
		phase(false, one("UF1", "UF2", "UF1", "UF2")...),
		phase(false, one("Q3", "Q12", "UF1", "Q6")...),
		phase(false, one("UF2", "UF1", "Q10", "Q5")...),
		phase(false, []string{"UF1", "UF2"}, []string{"UF2"}, []string{"UF1"}, []string{"UF2"}),
		phase(false, one("Q6", "Q6", "Q6", "Q6")...),
	}
	return encodeSpec(sc)
}
