package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The golden-output test is the proof-of-equivalence contract for the
// hot-path engine: `dssmem -exp fig6|fig7|scorecard` must print exactly
// the bytes recorded in testdata/, captured before the per-reference
// engine rewrite. Any change to scheduling order, miss classification,
// or stall accounting shows up here as a byte diff. Regenerate (only
// for a deliberate, documented model change) with:
//
//	go test ./internal/experiments -run TestGoldenOutput -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite golden experiment outputs")

// goldenExperiments are the pinned experiments: the two baseline
// characterization figures, every sweep the trace-replay engine serves
// (the line/cache sweeps and the prefetch/write-buffer ablations — their
// goldens were captured from fresh execution before replay existed, so
// they are the byte-level proof that replay equals execution), and the
// scorecard, which transitively runs the sweeps, warm-cache pairs, and
// prefetch comparison. mixedstreams pins the multi-phase stream
// executor: one job per stream, its phases on one warm system, must
// print the same bytes at every worker count.
var goldenExperiments = []string{
	"table1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
	"update", "ablations", "intraquery", "streams", "topology", "scorecard",
	"fig13", "mixedstreams",
}

func goldenOptions() Options {
	o := Defaults()
	o.Scale = 0.002
	return o
}

func TestGoldenOutput(t *testing.T) {
	if raceEnabled {
		t.Skip("golden byte-pinning runs at native speed; see determinism_test.go for the race-mode net")
	}
	for _, jobs := range []int{1, 4} {
		e := NewExec(jobs)
		defer e.Close()
		for _, name := range goldenExperiments {
			if name == "scorecard" && jobs != 4 {
				// The scorecard transitively runs every sweep; one
				// worker-count is enough for it (fig6/fig7 already pin
				// order-independence across -jobs values).
				continue
			}
			var buf bytes.Buffer
			if err := e.Render(&buf, name, goldenOptions()); err != nil {
				t.Fatalf("render %s (jobs=%d): %v", name, jobs, err)
			}
			path := filepath.Join("testdata", "golden_"+name+".txt")
			if *updateGolden && (jobs == 1 || name == "scorecard") {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden for %s (run with -update-golden): %v", name, err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s output (jobs=%d) diverges from golden %s:\n got %d bytes\nwant %d bytes\n%s",
					name, jobs, path, buf.Len(), len(want), firstDiff(buf.Bytes(), want))
			}
		}
	}
}

// firstDiff renders the first few lines around the first differing byte.
func firstDiff(got, want []byte) string {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	i := 0
	for i < n && got[i] == want[i] {
		i++
	}
	lo := i - 120
	if lo < 0 {
		lo = 0
	}
	hiG, hiW := i+120, i+120
	if hiG > len(got) {
		hiG = len(got)
	}
	if hiW > len(want) {
		hiW = len(want)
	}
	return fmt.Sprintf("first diff at byte %d:\n got: ...%s...\nwant: ...%s...",
		i, got[lo:hiG], want[lo:hiW])
}
