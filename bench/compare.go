package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"text/tabwriter"
)

// The verdicts of a comparison. "unresolved" is not "unchanged": the
// parent's own runs spread wider than the bound and the two sides
// overlap, so the files cannot tell.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictIdentical  = "identical"
	verdictChanged    = "CHANGED"
)

// worse returns by what share of a's median b is worse (negative =
// better), in the direction the metric counts as worse.
func worse(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// judge compares an end-to-end metric of a parent run a and a changed
// run b against the metric's bound.
func judge(d metricDef, a, b measured) string {
	sa, sb := spreadOf(a), spreadOf(b)
	overlap := sa.Q1 <= sb.Q3 && sb.Q1 <= sa.Q3
	if sa.spread() > d.Bound && overlap {
		return verdictUnresolved
	}
	w := worse(d, a.Value, b.Value)
	switch {
	case w > d.Bound:
		return verdictRegressed
	case w < 0 && !overlap && math.Abs(b.Value-a.Value) > math.Abs(sa.Q3-sa.Q1):
		return verdictImproved
	}
	return verdictUnchanged
}

func spreadOf(m measured) summary {
	if m.Spread != nil {
		return *m.Spread
	}
	return summary{Median: m.Value, Q1: m.Value, Q3: m.Value, N: 1}
}

// compareFiles prints, per workload and metric, both medians with
// their quartiles, the change, the bound and a verdict, then the
// per-layer values side by side. It returns how many end-to-end
// metrics regressed and how many exact counts changed.
func compareFiles(out io.Writer, a, b *resultFile) (regressed, changed int) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	defer tw.Flush()
	fmt.Fprintf(tw, "A: %s %s  seed %d\n", a.Provenance.Commit, a.Provenance.Time, a.Provenance.Seed)
	fmt.Fprintf(tw, "B: %s %s  seed %d\n\n", b.Provenance.Commit, b.Provenance.Time, b.Provenance.Seed)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] n\tB median [q1, q3] n\tworse by\tbound\tverdict")
	for _, w := range workloads {
		ra, rb := a.EndToEnd[w.Name], b.EndToEnd[w.Name]
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range endToEnd {
			ma, mb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			v := judge(d, ma, mb)
			if v == verdictRegressed {
				regressed++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\n", w.Name, d.Name, d.Unit,
				fmtSpread(ma), fmtSpread(mb), 100*worse(d, ma.Value, mb.Value), 100*d.Bound, v)
		}
		if ra.Failed != rb.Failed || ra.PassSimCycles != rb.PassSimCycles {
			changed++
		}
		fmt.Fprintf(tw, "%s\tfailed/attempted\t\t%d/%d\t%d/%d\t\t\t\n", w.Name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
		fmt.Fprintf(tw, "%s\tpass_sim_cycles\tcount\t%.0f\t%.0f\t\t\t%s\n", w.Name, ra.PassSimCycles, rb.PassSimCycles,
			exactVerdict(ra.PassSimCycles, rb.PassSimCycles))
	}
	fmt.Fprintln(tw, "\nworkload\tlayer metric\tunit\tA\tB\tchange\t\tverdict")
	for _, w := range workloads {
		ra, rb := a.PerLayer[w.Name], b.PerLayer[w.Name]
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range perLayer {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			verdict := ""
			if d.Exact {
				verdict = exactVerdict(va, vb)
				if va != vb {
					changed++
				}
			}
			change := ""
			if va != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(vb-va)/math.Abs(va))
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t\t%s\n", w.Name, d.Name, d.Unit,
				fmtValue(d, va), fmtValue(d, vb), change, verdict)
		}
	}
	return regressed, changed
}

// fmtValue prints an exact count with every digit and a measurement
// with six.
func fmtValue(d metricDef, v float64) string {
	if d.Exact {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return fmt.Sprintf("%.6g", v)
}

func exactVerdict(a, b float64) string {
	if a == b {
		return verdictIdentical
	}
	return verdictChanged
}

func fmtSpread(m measured) string {
	s := spreadOf(m)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", m.Value, s.Q1, s.Q3, s.N)
}

// selfcheckFiles is the repeatability test: two runs of the same build
// must agree on every end-to-end metric within its bound, in both
// directions, and on every exact count.
func selfcheckFiles(out io.Writer, a, b *resultFile) bool {
	ok := true
	var names []string
	for n := range a.EndToEnd {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ra, rb := a.EndToEnd[n], b.EndToEnd[n]
		if rb == nil {
			fmt.Fprintf(out, "selfcheck: %s missing from the second run\n", n)
			ok = false
			continue
		}
		for _, d := range endToEnd {
			w := worse(d, ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value)
			if math.Abs(w) > d.Bound {
				fmt.Fprintf(out, "selfcheck: %s %s differs by %.1f%% between two runs of one build (bound %.0f%%)\n",
					n, d.Name, 100*math.Abs(w), 100*d.Bound)
				ok = false
			}
		}
		if ra.PassSimCycles != rb.PassSimCycles {
			fmt.Fprintf(out, "selfcheck: %s pass_sim_cycles %.0f vs %.0f\n", n, ra.PassSimCycles, rb.PassSimCycles)
			ok = false
		}
		la, lb := a.PerLayer[n], b.PerLayer[n]
		if la == nil || lb == nil {
			continue
		}
		for _, d := range perLayer {
			if va, vb := la.Metrics[d.Name].Value, lb.Metrics[d.Name].Value; d.Exact && va != vb {
				fmt.Fprintf(out, "selfcheck: %s %s %v vs %v\n", n, d.Name, va, vb)
				ok = false
			}
		}
	}
	return ok
}
