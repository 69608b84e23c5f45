package core

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/trace"
)

// BenchmarkReplay is the replay layer's own number: one recording each
// of a Sequential (Q6) and an Index (Q3) query at scale 0.002, replayed
// under the baseline machine and under 16-byte secondary lines, and Q3
// also under the cache sweep's largest point (an 8-MB L2, most of whose
// sets the replay never fills), in host ns per recorded event.
// Recording happens once, outside the timed loops.
func BenchmarkReplay(b *testing.B) {
	type point struct {
		name string
		cfg  machine.Config
	}
	cfg := testConfig(0.002)
	for _, q := range []string{"Q6", "Q3"} {
		s, err := NewSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_, tr := s.RunColdRecorded(q)
		var events uint64
		for _, st := range tr.Streams {
			events += st.Events
		}
		cases := []point{
			{"baseline", cfg.Machine},
			{"line16", cfg.Machine.WithLineSize(16)},
		}
		if q == "Q3" {
			cases = append(cases, point{"l2-8mb", cfg.Machine.WithCacheSizes(256<<10, 8<<20)})
		}
		for _, c := range cases {
			b.Run(q+"/"+c.name, func(b *testing.B) {
				replayBench(b, tr, c.cfg, events)
			})
		}
	}
}

func replayBench(b *testing.B, tr *trace.QueryTrace, mcfg machine.Config, events uint64) {
	for i := 0; i < b.N; i++ {
		if _, err := ReplayTrace(tr, mcfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*events), "ns/event")
	b.ReportMetric(float64(events), "events/op")
}
