package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/trace"
)

// probes measures each layer from outside the program, by calling the
// layers' public functions with a span around each call: first on the
// workload's own inputs (same spec, so same scale, queries and seed),
// then on the synthetic inputs of micro.go. Only entry points the
// design intends to keep are called.
func (h *harness) probes(m map[string]float64, w workload, st *staged, dir string, parent int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sc, err := scenario.Decode(st.specs[0].Body)
	if err != nil {
		return err
	}
	if err := sc.Validate(); err != nil {
		return err
	}
	blob, err := h.coreProbes(m, *sc, dir, parent)
	if err != nil {
		return err
	}
	for _, probe := range []func() error{
		func() error { return h.machineProbes(m, parent) },
		func() error { return h.schedProbes(m, parent) },
		func() error { return h.runnerProbes(m, dir, parent) },
		func() error { return h.specProbes(m, st.specs[0].Body, parent) },
		func() error { return h.blobProbes(m, blob, dir, parent) },
		func() error { return h.walProbes(m, dir, parent) },
	} {
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

// replayPoints are the machine configurations the replay probes visit:
// the spec's own machine and the two ends of the sweeps, not every
// point.
func replayPoints(base scenario.Machine) []machine.Config {
	return []machine.Config{
		base.MachineConfig(),
		scenario.ApplyAxis(scenario.AxisLine, base, linePoints[0]).MachineConfig(),
		scenario.ApplyAxis(scenario.AxisCache, base, cachePoints[len(cachePoints)-1]).MachineConfig(),
	}
}

// recording is one captured trace with the reports of its recorded run.
type recording struct {
	tr      *trace.QueryTrace
	reports []*core.Report
	events  uint64
	took    time.Duration // the recorded run
}

func traceEvents(tr *trace.QueryTrace) uint64 {
	var n uint64
	for i := range tr.Streams {
		n += tr.Streams[i].Events
	}
	for s := range tr.Segments {
		for i := range tr.Segments[s].Streams {
			n += tr.Segments[s].Streams[i].Events
		}
	}
	return n
}

// coreProbes runs the record-once/replay-many pipeline by hand on the
// workload's spec: build the system, record each query (or the whole
// stream), replay the trace in memory and streamed from a file, decode
// it, and marshal it. It returns the largest blob for the store probes.
func (h *harness) coreProbes(m map[string]float64, sc scenario.Scenario, dir string, parent int) ([]byte, error) {
	// Every recording starts from a pristine system, as every capture
	// job of the program does.
	var builds []float64
	newSystem := func() (*core.System, error) {
		id := h.spans.begin("core.new_system", parent)
		sys, err := core.NewScenarioSystem(sc)
		builds = append(builds, h.spans.end(id).Seconds()*1e3)
		return sys, err
	}
	base := sc.Machine.MachineConfig()

	var recs []recording
	if len(sc.Workload.Phases) > 0 {
		sys, err := newSystem()
		if err != nil {
			return nil, err
		}
		id := h.spans.begin("core.stream_record", parent)
		reps, segs := sys.RunStreamRecorded(core.StreamPhasesFromSpec(sc.Workload.Phases))
		took := h.spans.end(id)
		tr := sys.StreamTrace(segs)
		recs = append(recs, recording{tr: tr, reports: reps, events: traceEvents(tr), took: took})
		m["core.stream_record_ms"] = took.Seconds() * 1e3
		if err := h.liveUpdateProbe(m, sys, parent); err != nil {
			return nil, err
		}
	} else {
		for _, q := range sc.Workload.Queries {
			sys, err := newSystem()
			if err != nil {
				return nil, err
			}
			id := h.spans.begin("core.record_run "+q, parent)
			rep, tr := sys.RunColdRecorded(q)
			took := h.spans.end(id)
			recs = append(recs, recording{tr: tr, reports: []*core.Report{rep}, events: traceEvents(tr), took: took})
		}
	}
	m["core.new_system_ms"] = median(builds)

	var (
		events, recordNS, sameNS              float64
		replayEvents, replayNS, streamedNS    float64
		decodeNS, marshalNS, unmarshalNS      float64
		openNS, blobBytes, allocs, allocBytes float64
		simCycles, l1, l2, reads              float64
		largest                               []byte
	)
	count := func(reps []*core.Report) {
		for _, r := range reps {
			simCycles += float64(r.MaxClock())
			l1 += float64(r.Machine.L1ReadMisses)
			l2 += float64(r.Machine.L2ReadMisses)
			reads += float64(r.Machine.Reads)
		}
	}
	for _, rec := range recs {
		events += float64(rec.events)
		recordNS += float64(rec.took.Nanoseconds())
		count(rec.reports)

		for i, cfg := range replayPoints(sc.Machine) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			id := h.spans.begin("core.replay "+rec.tr.Query, parent)
			reps, err := replay(rec.tr, cfg)
			took := h.spans.end(id)
			runtime.ReadMemStats(&after)
			if err != nil {
				return nil, err
			}
			count(reps)
			replayEvents += float64(rec.events)
			replayNS += float64(took.Nanoseconds())
			allocs += float64(after.Mallocs - before.Mallocs)
			allocBytes += float64(after.TotalAlloc - before.TotalAlloc)
			if i == 0 {
				// Same trace, same configuration as the recorded run:
				// what is left of the recorded run is capture.
				sameNS += float64(took.Nanoseconds())
				if got, want := reps[len(reps)-1].MaxClock(), rec.reports[len(rec.reports)-1].MaxClock(); got != want {
					return nil, fmt.Errorf("replay of %s ends at cycle %d, the recorded run at %d", rec.tr.Query, got, want)
				}
			}
		}

		id := h.spans.begin("trace.marshal "+rec.tr.Query, parent)
		blob := rec.tr.Marshal()
		marshalNS += float64(h.spans.end(id).Nanoseconds())
		blobBytes += float64(len(blob))
		if len(blob) > len(largest) {
			largest = blob
		}

		id = h.spans.begin("trace.unmarshal "+rec.tr.Query, parent)
		_, err := trace.Unmarshal(blob)
		unmarshalNS += float64(h.spans.end(id).Nanoseconds())
		if err != nil {
			return nil, err
		}

		path := filepath.Join(dir, "probe.trace")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			return nil, err
		}
		took, err := h.streamedReplay(path, int64(len(blob)), base, &openNS, parent)
		if err != nil {
			return nil, err
		}
		streamedNS += float64(took.Nanoseconds())

		id = h.spans.begin("trace.decode "+rec.tr.Query, parent)
		n, err := decodeAll(rec.tr)
		decodeNS += float64(h.spans.end(id).Nanoseconds())
		if err != nil {
			return nil, err
		}
		if n != rec.events {
			return nil, fmt.Errorf("decoded %d events of %s, recorded %d", n, rec.tr.Query, rec.events)
		}
	}
	if len(sc.Workload.Phases) > 0 {
		m["core.stream_replay_ms"] = sameNS / 1e6
	}

	mb := blobBytes / (1 << 20)
	m["core.record_run_ns_per_event"] = recordNS / events
	m["core.capture_self_ns_per_event"] = (recordNS - sameNS) / events
	m["core.replay_ns_per_event"] = replayNS / replayEvents
	m["core.replay_mevents_per_s"] = replayEvents / 1e6 / (replayNS / 1e9)
	m["core.replay_streamed_ns_per_event"] = streamedNS / events
	m["core.replay_allocs_per_mevent"] = allocs / (replayEvents / 1e6)
	m["core.replay_alloc_mb"] = allocBytes / (1 << 20)
	m["core.events"] = events
	m["core.sim_cycles"] = simCycles
	m["machine.l1_misses"] = l1
	m["machine.l2_misses"] = l2
	m["machine.l1_miss_rate"] = l1 / reads
	m["machine.l2_miss_rate"] = l2 / reads
	m["trace.decode_ns_per_event"] = decodeNS / events
	m["trace.marshal_ms_per_mb"] = marshalNS / 1e6 / mb
	m["trace.unmarshal_ms_per_mb"] = unmarshalNS / 1e6 / mb
	m["trace.open_blob_ms_per_mb"] = openNS / 1e6 / mb
	m["trace.bytes_per_event"] = blobBytes / events
	return largest, nil
}

// replay derives the reports of a trace under cfg the way the
// experiments do: a single-query trace through ReplayTrace, a
// segmented stream through ReplayStream.
func replay(src trace.StreamSource, cfg machine.Config) ([]*core.Report, error) {
	if len(src.Meta().Segments) > 0 {
		return core.ReplayStream(src, cfg)
	}
	rep, err := core.ReplayTrace(src, cfg)
	return []*core.Report{rep}, err
}

// streamedReplay replays a blob the way the trace store serves it:
// opened over the file, chunks read on demand.
func (h *harness) streamedReplay(path string, size int64, cfg machine.Config, openNS *float64, parent int) (time.Duration, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	id := h.spans.begin("core.replay_streamed", parent)
	oid := h.spans.begin("trace.open_blob", id)
	rd, err := trace.OpenBlob(f, size)
	*openNS += float64(h.spans.end(oid).Nanoseconds())
	if err == nil {
		_, err = replay(rd, cfg)
	}
	return h.spans.end(id), err
}

// decodeAll decodes every stream of the trace into the scheduler's
// replay form, discarding the events, and returns how many there were.
func decodeAll(tr *trace.QueryTrace) (uint64, error) {
	noOp := func(bool, uint32, uint8, uint32, uint8) func(*sched.Proc) { return nil }
	buf := make([]sched.ReplayEvent, 8192)
	var total uint64
	for k := 0; k < tr.NumSegments(); k++ {
		seg := tr.Segment(k)
		for i := range seg.Meta().Streams {
			cur := seg.StreamCursor(i)
			for {
				n, err := cur.DecodeReplayBatch(buf, noOp)
				if err != nil {
					return total, err
				}
				if n == 0 {
					break
				}
				total += uint64(n)
			}
		}
	}
	return total, nil
}

// liveUpdateProbe times updates executing live: UF1 and UF2 on two
// processors each, on the system the stream just ran on. Updates never
// take the capture+replay path, so this is the goroutine driver, the
// lock manager and the executor's write path.
func (h *harness) liveUpdateProbe(m map[string]float64, sys *core.System, parent int) error {
	runs := []core.QueryRun{{Query: "UF1", Variant: 1}, {Query: "UF2", Variant: 2},
		{Query: "UF1", Variant: 3}, {Query: "UF2", Variant: 4}}
	if len(runs) != sys.Mem.Nodes() {
		return fmt.Errorf("live update probe wants %d processors, the spec has %d", len(runs), sys.Mem.Nodes())
	}
	sys.ResetMeasurement()
	id := h.spans.begin("core.live_update", parent)
	rep := sys.RunQueries(runs)
	took := h.spans.end(id)
	refs := rep.Machine.Reads + rep.Machine.Writes + rep.Machine.Syncs
	if refs == 0 {
		return fmt.Errorf("live update probe made no references")
	}
	m["core.live_update_ns_per_event"] = float64(took.Nanoseconds()) / float64(refs)
	return nil
}
