// Package scenario is the declarative spec layer: one validated,
// canonicalizable description of a full run — the simulated machine,
// the workload on it, and an optional one-axis parameter sweep. The
// paper's whole methodology is "vary one machine parameter, re-run the
// same queries, attribute the misses"; a Scenario captures exactly that
// variation as data, so every named experiment is a preset spec (see
// presets.go), arbitrary specs arrive over HTTP or from -scenario
// files, and the runner's cache keys derive from the spec's canonical
// hash instead of from code-side job plumbing.
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/simm"
	"repro/internal/tpcd"
)

// FormatVersion is the spec-format generation of the legacy
// Queries+Warm workload shape. It prefixes every canonical hash (and
// therefore every runner cache key and trace-store filename) as
// "s<version>-", so a format change can never silently replay a blob
// recorded under older semantics: old entries simply miss. Bump it
// whenever the meaning of an existing field changes or a new field
// alters how identical-looking specs execute.
const FormatVersion = 1

// StreamFormatVersion is the spec-format generation of workloads that
// carry an explicit phase sequence (Workload.Phases). Stream specs
// execute through the phase executor — different semantics than the
// one-query-list shape — so they hash under their own generation
// ("s2-...") while legacy specs keep their "s1-..." hashes bit for
// bit; see (*Scenario).Generation.
const StreamFormatVersion = 2

// Machine describes the simulated hardware plus the processor
// front-end cost model — everything core needs to build the
// machine.Config and sched.Config of a run. Field semantics follow
// machine.Config; see that package for the paper's definitions.
type Machine struct {
	Processors int `json:"processors"`

	L1Bytes int `json:"l1_bytes"`
	L1Line  int `json:"l1_line"`
	L2Bytes int `json:"l2_bytes"`
	L2Line  int `json:"l2_line"`
	L2Ways  int `json:"l2_ways"`

	WriteBufEntries int `json:"write_buf_entries"`

	L2HitLat   int64 `json:"l2_hit_lat"`
	LocalMem   int64 `json:"local_mem"`
	Remote2Hop int64 `json:"remote2_hop"`
	Remote3Hop int64 `json:"remote3_hop"`

	DirOccupancy    int64 `json:"dir_occupancy"`
	TransferPerWord int64 `json:"transfer_per_word"`

	PrefetchData   bool `json:"prefetch_data"`
	PrefetchDegree int  `json:"prefetch_degree"`

	SnoopingBus bool  `json:"snooping_bus"`
	BusLat      int64 `json:"bus_lat"`

	// Front-end cost model (sched.Config): busy cycles per traced
	// reference and the spin-iteration cost on a held metalock.
	BusyPerAccess int64 `json:"busy_per_access"`
	SpinBackoff   int64 `json:"spin_backoff"`
}

// Workload describes what runs on the machine: the traced queries, the
// database scale and seed, whether the caches are pre-warmed, and the
// storage-layer layout and executor cost-model knobs.
type Workload struct {
	// Queries are the traced queries, one instance per processor each.
	Queries []string `json:"queries"`
	// Scale is the TPC-D scale factor (the paper uses 0.01).
	Scale float64 `json:"scale"`
	// Seed drives database generation.
	Seed uint64 `json:"seed"`
	// Warm names a query that runs first to warm the caches; the
	// measured run then starts without flushing ("" = cold start, the
	// paper's default methodology).
	Warm string `json:"warm"`

	// Storage-layer layout parameters (core.Config).
	LockTableSlots   int    `json:"lock_table_slots"`
	PrivateHeapBytes uint64 `json:"private_heap_bytes"`

	// Per-tuple executor cost model (core.Config / executor.Ctx).
	OverheadTouches int   `json:"overhead_touches"`
	HotTouches      int   `json:"hot_touches"`
	TupleBusy       int64 `json:"tuple_busy"`
	IndexTupleBusy  int64 `json:"index_tuple_busy"`

	// Phases is the stream-workload shape: an ordered sequence of
	// phases, each an ordered per-processor list of query runs, with
	// cache/buffer state carried across phases. Mutually exclusive with
	// Queries/Warm — a workload is either the legacy one-shot shape or
	// an explicit stream. The omitempty keeps legacy canonical
	// encodings (and therefore every existing hash) byte-identical.
	Phases []Phase `json:"phases,omitempty"`
}

// PhaseRun is one query execution inside a phase: a query name (the 17
// read-only TPC-D queries or the UF1/UF2 update transactions) and the
// variant parameter that seeds its predicates.
type PhaseRun struct {
	Query   string `json:"query"`
	Variant uint64 `json:"variant"`
}

// Phase is one step of a stream workload. Runs is indexed by
// processor: Runs[i] is processor i's ordered run list for this phase
// (empty = idle); processors beyond len(Runs) idle. Flush flushes the
// caches and measurement state at the phase boundary (database
// contents persist); without it only the measurement counters reset,
// so the phase runs on whatever cache state the previous phases left —
// the warm-state semantics that make streams worth modeling.
type Phase struct {
	Flush bool         `json:"flush"`
	Runs  [][]PhaseRun `json:"runs"`
}

// Sweep varies one machine axis over a point list; the workload re-runs
// at every point. An empty Axis means no sweep.
type Sweep struct {
	Axis   string `json:"axis"`
	Points []int  `json:"points"`
}

// Scenario is the complete declarative spec of one run. Name is a
// label only (preset identity, display); it is excluded from the
// canonical encoding and the hash.
type Scenario struct {
	Name     string   `json:"name,omitempty"`
	Machine  Machine  `json:"machine"`
	Workload Workload `json:"workload"`
	Sweep    Sweep    `json:"sweep"`
}

// The sweep axes. Each maps a point value onto machine fields exactly
// the way the corresponding hand-written experiment did (ApplyAxis).
const (
	// AxisLine sweeps the secondary line size; the primary line is
	// always half (the paper's Figures 8-9 convention).
	AxisLine = "line"
	// AxisCache sweeps the secondary cache size in KB; the primary
	// stays 1/32 of it (Figures 10-11).
	AxisCache = "cache"
	// AxisPrefetch sweeps the sequential-prefetch degree; point 0
	// turns data prefetching off.
	AxisPrefetch = "prefetch"
	// AxisWriteBuf sweeps the coalescing write buffer depth.
	AxisWriteBuf = "writebuf"
	// AxisContention sweeps the directory occupancy (point 0 turns
	// directory contention off).
	AxisContention = "contention"
)

// Axes lists every valid sweep axis.
var Axes = []string{AxisLine, AxisCache, AxisPrefetch, AxisWriteBuf, AxisContention}

// ApplyAxis returns m with one sweep point applied along axis. Unknown
// axes return m unchanged; Validate rejects them before any caller can
// get here with one.
func ApplyAxis(axis string, m Machine, point int) Machine {
	switch axis {
	case AxisLine:
		m.L2Line = point
		m.L1Line = point / 2
	case AxisCache:
		m.L1Bytes = point * 1024 / 32
		m.L2Bytes = point * 1024
	case AxisPrefetch:
		if point == 0 {
			m.PrefetchData = false
		} else {
			m.PrefetchData = true
			m.PrefetchDegree = point
		}
	case AxisWriteBuf:
		m.WriteBufEntries = point
	case AxisContention:
		m.DirOccupancy = int64(point)
	}
	return m
}

// FromMachineConfig lifts a machine.Config into a spec Machine, taking
// the front-end cost model from the sched defaults.
func FromMachineConfig(c machine.Config) Machine {
	sc := sched.DefaultConfig()
	return Machine{
		Processors:      c.Nodes,
		L1Bytes:         c.L1Bytes,
		L1Line:          c.L1Line,
		L2Bytes:         c.L2Bytes,
		L2Line:          c.L2Line,
		L2Ways:          c.L2Ways,
		WriteBufEntries: c.WriteBufEntries,
		L2HitLat:        c.L2HitLat,
		LocalMem:        c.LocalMem,
		Remote2Hop:      c.Remote2Hop,
		Remote3Hop:      c.Remote3Hop,
		DirOccupancy:    c.DirOccupancy,
		TransferPerWord: c.TransferPerWord,
		PrefetchData:    c.PrefetchData,
		PrefetchDegree:  c.PrefetchDegree,
		SnoopingBus:     c.SnoopingBus,
		BusLat:          c.BusLat,
		BusyPerAccess:   sc.BusyPerAccess,
		SpinBackoff:     sc.SpinBackoff,
	}
}

// MachineConfig lowers the spec Machine to the machine package's
// configuration.
func (m Machine) MachineConfig() machine.Config {
	return machine.Config{
		Nodes:           m.Processors,
		L1Bytes:         m.L1Bytes,
		L1Line:          m.L1Line,
		L2Bytes:         m.L2Bytes,
		L2Line:          m.L2Line,
		L2Ways:          m.L2Ways,
		WriteBufEntries: m.WriteBufEntries,
		L2HitLat:        m.L2HitLat,
		LocalMem:        m.LocalMem,
		Remote2Hop:      m.Remote2Hop,
		Remote3Hop:      m.Remote3Hop,
		DirOccupancy:    m.DirOccupancy,
		TransferPerWord: m.TransferPerWord,
		PrefetchData:    m.PrefetchData,
		PrefetchDegree:  m.PrefetchDegree,
		SnoopingBus:     m.SnoopingBus,
		BusLat:          m.BusLat,
	}
}

// SchedConfig extracts the front-end cost model.
func (m Machine) SchedConfig() sched.Config {
	return sched.Config{BusyPerAccess: m.BusyPerAccess, SpinBackoff: m.SpinBackoff}
}

// DefaultMachine is the paper's baseline architecture as a spec.
func DefaultMachine() Machine { return FromMachineConfig(machine.Baseline()) }

// DefaultWorkload is the paper's workload: Q3/Q6/Q12 cold at scale
// 0.01, with the calibrated storage and executor cost model. The
// layout/cost literals mirror core.DefaultConfig (core depends on this
// package, so the values live here; core's tests pin the agreement).
func DefaultWorkload() Workload {
	db := tpcd.DefaultConfig()
	return Workload{
		Queries:          []string{"Q3", "Q6", "Q12"},
		Scale:            db.ScaleFactor,
		Seed:             db.Seed,
		LockTableSlots:   8192,
		PrivateHeapBytes: 96 << 20,
		OverheadTouches:  3,
		HotTouches:       40,
		TupleBusy:        650,
		IndexTupleBusy:   8000,
	}
}

// Default is the paper's baseline run: the baseline machine, the
// default workload, no sweep.
func Default() Scenario {
	return Scenario{Machine: DefaultMachine(), Workload: DefaultWorkload()}
}

// Decode parses a JSON spec over the defaults: absent fields keep their
// default values (so `{}` is exactly the baseline run), present fields
// override them — including explicit zeros, which is how a spec turns
// directory contention or the write-buffer model off. Unknown fields
// and trailing data are errors.
func Decode(data []byte) (*Scenario, error) {
	sc := Default()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("scenario: trailing data after the spec")
	}
	if len(sc.Workload.Phases) > 0 {
		// A stream workload replaces the default query list. The
		// defaults fill Queries even when the spec never mentioned it,
		// so distinguish "defaulted" from "explicitly given": only the
		// latter is a real conflict, which Validate reports.
		var probe struct {
			Workload struct {
				Queries *json.RawMessage `json:"queries"`
				Warm    *json.RawMessage `json:"warm"`
			} `json:"workload"`
		}
		// The spec already decoded, so this loose re-parse cannot fail.
		_ = json.Unmarshal(data, &probe)
		if probe.Workload.Queries == nil {
			sc.Workload.Queries = nil
		}
		if probe.Workload.Warm == nil {
			sc.Workload.Warm = ""
		}
	}
	return &sc, nil
}

// FieldError locates a validation failure by the JSON path of the
// offending field.
type FieldError struct {
	Path string
	Msg  string
}

func (e *FieldError) Error() string { return "scenario: " + e.Path + ": " + e.Msg }

func bad(path, format string, args ...interface{}) error {
	return &FieldError{Path: path, Msg: fmt.Sprintf(format, args...)}
}

// Bounds. They exist for two reasons: a spec is accepted from the
// network (dssmemd POST /v1/scenarios), so a single request must not be
// able to demand an absurdly large simulation; and the per-point sweep
// application must stay far from integer overflow so validation itself
// can never trap.
const (
	maxLine      = 1 << 20 // 1 MB lines
	maxCacheB    = 1 << 30 // 1 GB caches
	maxWays      = 64
	maxLatency   = int64(1) << 32
	maxQueries   = 64
	maxPoints    = 64
	maxPointVal  = 1 << 20
	maxHeapBytes = uint64(4) << 30

	// maxSharedBytes bounds what a workload maps besides its private
	// heaps: at scale 1 the buffer pool is 400,200 8-KB blocks (3.3 GB),
	// and the buffer descriptors, the lock tables at 2^20 slots and the
	// catalog add under 50 MB.
	maxSharedBytes = uint64(4) << 30

	// Stream-workload bounds: phases per stream and runs per processor
	// per phase. Together with maxQueries-scale processor counts they
	// bound the total work one network-supplied spec can demand.
	maxPhases      = 32
	maxRunsPerProc = 8
)

// knownQuery reports whether q names a runnable workload: one of the
// 17 read-only TPC-D queries or the two update functions.
func knownQuery(q string) bool {
	for _, n := range tpcd.QueryNames {
		if n == q {
			return true
		}
	}
	return q == "UF1" || q == "UF2"
}

func pow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// validateMachine checks one machine spec, reporting errors under the
// given path prefix (the top-level machine uses "machine"; sweep
// validation re-checks each applied point under "sweep.points[i]").
func validateMachine(m Machine, prefix string) error {
	p := func(field string) string { return prefix + "." + field }
	switch {
	case m.Processors < 1 || m.Processors > 16:
		return bad(p("processors"), "%d processors, want 1..16", m.Processors)
	case m.L1Line < 8 || m.L1Line > maxLine || !pow2(m.L1Line):
		return bad(p("l1_line"), "%d not a power of two in 8..%d", m.L1Line, maxLine)
	case m.L2Line < m.L1Line || m.L2Line > maxLine || !pow2(m.L2Line):
		return bad(p("l2_line"), "%d not a power of two in %d..%d", m.L2Line, m.L1Line, maxLine)
	case m.L1Bytes < m.L1Line || m.L1Bytes > maxCacheB || m.L1Bytes%m.L1Line != 0:
		return bad(p("l1_bytes"), "%d not a multiple of the %d-byte line (max %d)", m.L1Bytes, m.L1Line, maxCacheB)
	case m.L2Ways < 1 || m.L2Ways > maxWays:
		return bad(p("l2_ways"), "%d ways, want 1..%d", m.L2Ways, maxWays)
	case m.L2Bytes < m.L2Line*m.L2Ways || m.L2Bytes > maxCacheB || m.L2Bytes%(m.L2Line*m.L2Ways) != 0:
		return bad(p("l2_bytes"), "%d not a multiple of %d-byte lines x %d ways (max %d)",
			m.L2Bytes, m.L2Line, m.L2Ways, maxCacheB)
	case m.WriteBufEntries < 1 || m.WriteBufEntries > 1<<16:
		return bad(p("write_buf_entries"), "%d entries, want 1..%d", m.WriteBufEntries, 1<<16)
	case m.PrefetchDegree < 1 || m.PrefetchDegree > maxWays:
		return bad(p("prefetch_degree"), "%d, want 1..%d", m.PrefetchDegree, maxWays)
	}
	for _, l := range []struct {
		field string
		v     int64
	}{
		{"l2_hit_lat", m.L2HitLat}, {"local_mem", m.LocalMem},
		{"remote2_hop", m.Remote2Hop}, {"remote3_hop", m.Remote3Hop},
		{"dir_occupancy", m.DirOccupancy}, {"transfer_per_word", m.TransferPerWord},
		{"bus_lat", m.BusLat}, {"busy_per_access", m.BusyPerAccess},
		{"spin_backoff", m.SpinBackoff},
	} {
		if l.v < 0 || l.v > maxLatency {
			return bad(p(l.field), "%d cycles, want 0..%d", l.v, maxLatency)
		}
	}
	return nil
}

func validWorkload(w Workload) error {
	switch {
	case !(w.Scale > 0) || w.Scale > 1:
		return bad("workload.scale", "%v, want a scale factor in (0, 1]", w.Scale)
	case len(w.Queries) > maxQueries:
		return bad("workload.queries", "%d queries, max %d", len(w.Queries), maxQueries)
	case w.LockTableSlots < 1 || w.LockTableSlots > 1<<20:
		return bad("workload.lock_table_slots", "%d, want 1..%d", w.LockTableSlots, 1<<20)
	case w.PrivateHeapBytes < 1<<16 || w.PrivateHeapBytes > maxHeapBytes:
		return bad("workload.private_heap_bytes", "%d, want %d..%d", w.PrivateHeapBytes, 1<<16, maxHeapBytes)
	case w.OverheadTouches < 0 || w.OverheadTouches > 1<<16:
		return bad("workload.overhead_touches", "%d, want 0..%d", w.OverheadTouches, 1<<16)
	case w.HotTouches < 0 || w.HotTouches > 1<<16:
		return bad("workload.hot_touches", "%d, want 0..%d", w.HotTouches, 1<<16)
	case w.TupleBusy < 0 || w.TupleBusy > maxLatency:
		return bad("workload.tuple_busy", "%d, want 0..%d", w.TupleBusy, maxLatency)
	case w.IndexTupleBusy < 0 || w.IndexTupleBusy > maxLatency:
		return bad("workload.index_tuple_busy", "%d, want 0..%d", w.IndexTupleBusy, maxLatency)
	}
	for i, q := range w.Queries {
		if !knownQuery(q) {
			return bad(fmt.Sprintf("workload.queries[%d]", i), "unknown query %q", q)
		}
	}
	if w.Warm != "" && !knownQuery(w.Warm) {
		return bad("workload.warm", "unknown query %q", w.Warm)
	}
	return nil
}

// validPhases checks the stream-workload shape against the machine's
// processor count. Phases are mutually exclusive with the legacy
// Queries/Warm fields: a workload is one shape or the other.
func validPhases(w Workload, procs int) error {
	if len(w.Phases) == 0 {
		return nil
	}
	switch {
	case len(w.Queries) > 0:
		return bad("workload.queries", "cannot combine a query list with phases")
	case w.Warm != "":
		return bad("workload.warm", "cannot combine a warm query with phases")
	case len(w.Phases) > maxPhases:
		return bad("workload.phases", "%d phases, max %d", len(w.Phases), maxPhases)
	}
	for i, ph := range w.Phases {
		if len(ph.Runs) > procs {
			return bad(fmt.Sprintf("workload.phases[%d].runs", i),
				"%d run lists for %d processors", len(ph.Runs), procs)
		}
		runs := 0
		for j, list := range ph.Runs {
			if len(list) > maxRunsPerProc {
				return bad(fmt.Sprintf("workload.phases[%d].runs[%d]", i, j),
					"%d runs on one processor, max %d", len(list), maxRunsPerProc)
			}
			for k, r := range list {
				if !knownQuery(r.Query) {
					return bad(fmt.Sprintf("workload.phases[%d].runs[%d][%d].query", i, j, k),
						"unknown query %q", r.Query)
				}
			}
			runs += len(list)
		}
		if runs == 0 {
			return bad(fmt.Sprintf("workload.phases[%d].runs", i), "phase runs nothing")
		}
	}
	return nil
}

func validAxis(axis string) bool {
	for _, a := range Axes {
		if a == axis {
			return true
		}
	}
	return false
}

// Validate checks the whole spec, including every machine the sweep
// would instantiate, and reports the first failure with its field path.
func (s *Scenario) Validate() error {
	if err := validateMachine(s.Machine, "machine"); err != nil {
		return err
	}
	if err := validWorkload(s.Workload); err != nil {
		return err
	}
	if err := validPhases(s.Workload, s.Machine.Processors); err != nil {
		return err
	}
	if err := fitsTags(s.Machine, s.Workload, "machine"); err != nil {
		return err
	}
	if len(s.Workload.Phases) > 0 && s.Sweep.Axis != "" {
		return bad("sweep.axis", "cannot sweep a stream workload; replay its capture per configuration instead")
	}
	sw := s.Sweep
	switch {
	case sw.Axis == "" && len(sw.Points) > 0:
		return bad("sweep.axis", "points given without an axis (valid axes: %v)", Axes)
	case sw.Axis != "" && !validAxis(sw.Axis):
		return bad("sweep.axis", "unknown axis %q (valid: %v)", sw.Axis, Axes)
	case sw.Axis != "" && len(sw.Points) == 0:
		return bad("sweep.points", "empty sweep points")
	case len(sw.Points) > maxPoints:
		return bad("sweep.points", "%d points, max %d", len(sw.Points), maxPoints)
	}
	for i, pt := range sw.Points {
		if pt < 0 || pt > maxPointVal {
			return bad(fmt.Sprintf("sweep.points[%d]", i), "%d, want 0..%d", pt, maxPointVal)
		}
		applied := ApplyAxis(sw.Axis, s.Machine, pt)
		if err := validateMachine(applied, fmt.Sprintf("sweep.points[%d]", i)); err != nil {
			return err
		}
		if err := fitsTags(applied, s.Workload, fmt.Sprintf("sweep.points[%d]", i)); err != nil {
			return err
		}
	}
	return nil
}

// fitsTags checks that every address the workload can map lies below
// what the machine's secondary-cache tags reach (machine.Config.TagReach
// is 2^32-1 times the bytes of one way, so only a cache of a few bytes
// per way can fall short): one unmapped page, a private heap per
// processor, and at most maxSharedBytes of database, lock tables and
// catalog.
func fitsTags(m Machine, w Workload, prefix string) error {
	need := simm.PageSize + uint64(m.Processors)*w.PrivateHeapBytes + maxSharedBytes
	if reach := m.MachineConfig().TagReach(); need > reach {
		return bad(prefix+".l2_bytes", "%d-byte ways tag addresses below %#x; %d private heaps of %d bytes and the database may need %#x",
			m.L2Bytes/m.L2Ways, reach, m.Processors, w.PrivateHeapBytes, need)
	}
	return nil
}

// canonical is the hashed shape: every field, no omissions, no Name.
type canonical struct {
	Machine  Machine  `json:"machine"`
	Workload Workload `json:"workload"`
	Sweep    Sweep    `json:"sweep"`
}

// Canonical returns the spec's canonical encoding: deterministic JSON
// with every field present in struct order, nil slices normalized to
// empty, and the Name label excluded. Two specs describe the same run
// if and only if their canonical bytes are equal. The bytes re-decode
// to an equivalent spec, so canonicalization round-trips.
func (s *Scenario) Canonical() []byte {
	c := canonical{Machine: s.Machine, Workload: s.Workload, Sweep: s.Sweep}
	if c.Workload.Queries == nil {
		c.Workload.Queries = []string{}
	}
	if c.Sweep.Points == nil {
		c.Sweep.Points = []int{}
	}
	if len(c.Workload.Phases) > 0 {
		// Normalize the nested run slices on a copy (the phase slice is
		// shared with the caller): nil and empty mean the same idle
		// processor, so they must encode identically.
		phases := make([]Phase, len(c.Workload.Phases))
		for i, ph := range c.Workload.Phases {
			runs := make([][]PhaseRun, len(ph.Runs))
			for j, list := range ph.Runs {
				if list == nil {
					list = []PhaseRun{}
				}
				runs[j] = list
			}
			phases[i] = Phase{Flush: ph.Flush, Runs: runs}
		}
		c.Workload.Phases = phases
	}
	b, err := json.Marshal(c)
	if err != nil {
		// Marshal of a struct of scalars and slices cannot fail.
		panic(fmt.Sprintf("scenario: canonical encoding failed: %v", err))
	}
	return b
}

// Generation returns the spec-format generation this scenario hashes
// under: StreamFormatVersion for stream workloads (explicit phases),
// FormatVersion for the legacy Queries+Warm shape. Keeping the two
// shapes in separate generations means every pre-stream hash, cache
// key, and trace-store filename survives the refactor bit for bit.
func (s *Scenario) Generation() int {
	if len(s.Workload.Phases) > 0 {
		return StreamFormatVersion
	}
	return FormatVersion
}

// Hash returns the spec's stable content address, prefixed with the
// format generation ("s1-..." legacy, "s2-..." streams): equal
// canonical bytes hash equal forever within a format generation, and a
// version bump changes every hash.
func (s *Scenario) Hash() string {
	sum := sha256.Sum256(s.Canonical())
	return fmt.Sprintf("s%d-%x", s.Generation(), sum)
}

// LegacyPhases maps the legacy one-shot workload shape onto the
// explicit stream form: warm != "" becomes a flushed warm-up phase
// (one run of warm per processor, variant = processor index) followed
// by an unflushed measured phase; warm == "" is a single flushed
// phase. The measured runs use variant 100+i, matching what the
// hand-written experiments always passed, so lowering a legacy spec
// through the stream executor reproduces the old execution bit for
// bit.
func LegacyPhases(target, warm string, procs int) []Phase {
	measured := make([][]PhaseRun, procs)
	for i := range measured {
		measured[i] = []PhaseRun{{Query: target, Variant: uint64(100 + i)}}
	}
	if warm == "" {
		return []Phase{{Flush: true, Runs: measured}}
	}
	warming := make([][]PhaseRun, procs)
	for i := range warming {
		warming[i] = []PhaseRun{{Query: warm, Variant: uint64(i)}}
	}
	return []Phase{
		{Flush: true, Runs: warming},
		{Flush: false, Runs: measured},
	}
}
