package experiments

import (
	"repro/internal/core"
	"repro/internal/stats"
)

// Query streams. The paper's workload model is inter-query parallelism
// where "each simulated processor runs a different query or stream of
// queries", but its measurements are single cold-start queries. This
// extension runs multi-round streams and measures the steady state:
// with caches large enough to hold the scanned tables (the Figure 12
// configuration), later rounds of Sequential queries run on warm data
// and the per-round time drops toward a floor, while Index queries gain
// only their index/metadata reuse.

// StreamPoint is one round of one stream.
type StreamPoint struct {
	Round int
	Query string
	Clock int64 // cycles this round took (max across processors)
}

// streamRounds is three passes over the mix: one cold, two warm.
const streamRounds = 9

// RunStreams executes streamRounds rounds of the mix [Q6 Q12 Q3]
// repeated, with every processor running the round's query type under
// distinct parameters, as one pool job on the streams preset's
// big-cache machine. Caches are never flushed between rounds.
func (e *Exec) RunStreams(o Options) ([]StreamPoint, error) {
	return presetJob(e, "streams", o, runStreams)
}

func runStreams(s *core.System) []StreamPoint {
	mix := []string{"Q6", "Q12", "Q3"}
	s.ColdStart()
	var out []StreamPoint
	var prev []int64
	for _, p := range s.Eng.Procs() {
		prev = append(prev, p.Clock())
	}
	for round := 0; round < streamRounds; round++ {
		// Barrier between rounds: without it, one round's stragglers
		// overlap the next round's queries in simulated time and the
		// per-round attribution blurs.
		s.Eng.AlignClocks()
		for i := range prev {
			prev[i] = s.Eng.Procs()[i].Clock()
		}
		q := mix[round%len(mix)]
		runs := s.SameQueryAllProcs(q)
		for i := range runs {
			runs[i].Variant = uint64(round*10 + i) // fresh parameters each round
		}
		s.RunQueries(runs)
		var max int64
		for i, p := range s.Eng.Procs() {
			if d := p.Clock() - prev[i]; d > max {
				max = d
			}
			prev[i] = p.Clock()
		}
		out = append(out, StreamPoint{Round: round, Query: q, Clock: max})
	}
	return out
}

// StreamsTable renders each round's time relative to the first round of
// its query type (the cold one).
func StreamsTable(points []StreamPoint) *stats.Table {
	t := &stats.Table{Header: []string{"Round", "Query", "Cycles", "RelToCold%"}}
	cold := map[string]int64{}
	for _, p := range points {
		if _, ok := cold[p.Query]; !ok {
			cold[p.Query] = p.Clock
		}
		t.AddRow(p.Round, p.Query, p.Clock, 100*float64(p.Clock)/float64(cold[p.Query]))
	}
	return t
}
