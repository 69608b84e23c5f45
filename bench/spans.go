package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// program: name, start, end, and the span that caused it. Times are
// nanoseconds since the recorder was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced runs pay nothing for it.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span under parent and returns its id (0 on a nil log).
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(l.t0).Nanoseconds()})
	return len(l.spans)
}

// end closes span id and returns its duration.
func (l *spanLog) end(id int) time.Duration {
	if l == nil || id == 0 {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[id-1]
	s.End = time.Since(l.t0).Nanoseconds()
	return time.Duration(s.End - s.Start)
}

// selfTimes fills every span's Self: its duration minus the part of
// its interval that its direct children cover (overlapping children
// count once).
func selfTimes(spans []span) {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, hi int64 = 0, s.Start
		for _, k := range iv {
			lo, end := k[0], k[1]
			if lo < hi {
				lo = hi
			}
			if end > s.End {
				end = s.End
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		s.Self = (s.End - s.Start) - covered
	}
}

// write computes self times and writes the log as JSON.
func (l *spanLog) write(path string) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	selfTimes(l.spans)
	b, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
