package experiments

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/simm"
	"repro/internal/stats"
	"repro/internal/tpcd"
)

// The scorecard grades every headline claim of the paper against a live
// run, in one screen: the reproduction's continuous-integration face.

// Claim is one graded assertion.
type Claim struct {
	ID     string
	Text   string
	Pass   bool
	Detail string
}

func claim(id, text string, pass bool, detail string) Claim {
	return Claim{ID: id, Text: text, Pass: pass, Detail: detail}
}

// RunScorecard runs the baseline characterization, the line and cache
// sweeps, the warm-cache pairs, and the prefetch comparison, and grades
// the paper's claims. The component experiments all run through this
// Exec's pool, so a scorecard after an `-exp all` run resolves mostly
// from cache.
func (e *Exec) RunScorecard(o Options) ([]Claim, error) {
	var out []Claim

	// Table 1.
	tbl, err := e.Table1(o)
	if err != nil {
		return nil, err
	}
	out = append(out, claim("T1", "Table 1 operator matrix regenerated",
		len(tbl.Rows) == len(tpcd.QueryNames), fmt.Sprintf("%d rows", len(tbl.Rows))))

	// Figures 6 and 7.
	results, err := e.RunCold(o, machine.Baseline())
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		tot := r.Report.Total()
		busy := float64(tot.Busy) / float64(tot.Total())
		out = append(out, claim("F6-busy-"+r.Query, "Busy is the majority bucket (paper: 50-70%)",
			busy > 0.40 && busy < 0.85, fmt.Sprintf("%.0f%%", 100*busy)))
		g := tot.MemByGroup()
		shared := g[simm.GroupData] + g[simm.GroupIndex] + g[simm.GroupMetadata]
		switch r.Query {
		case "Q3":
			im := g[simm.GroupIndex] + g[simm.GroupMetadata]
			out = append(out, claim("F6-q3", "Q3 shared stall mostly Index+Metadata",
				im > g[simm.GroupData], fmt.Sprintf("idx+meta %d vs data %d", im, g[simm.GroupData])))
		default:
			out = append(out, claim("F6-seq-"+r.Query, r.Query+" shared stall dominated by Data",
				2*g[simm.GroupData] > shared, stats.Pct(g[simm.GroupData], shared)))
		}
		st := r.Report.Machine
		l1 := st.L1Misses
		out = append(out, claim("F7-l1priv-"+r.Query, "L1 misses mostly private, conflict type",
			l1.ByCategory(simm.CatPriv)*2 > l1.Total() &&
				l1[simm.CatPriv][stats.Conf] > l1[simm.CatPriv][stats.Cold],
			stats.Pct(l1.ByCategory(simm.CatPriv), l1.Total())))
		l2 := st.L2Misses
		switch r.Query {
		case "Q6", "Q12":
			out = append(out, claim("F7-cold-"+r.Query, r.Query+" L2 Data misses are cold",
				l2[simm.CatData][stats.Cold]*100 >= l2.ByCategory(simm.CatData)*99,
				stats.Pct(l2[simm.CatData][stats.Cold], l2.ByCategory(simm.CatData))))
		case "Q3":
			// The very first touch of the lock word per processor is
			// necessarily cold and cache pressure can evict the line, so
			// "all coherence" means >= 95%.
			sl := l2[simm.CatLockSLock]
			slTotal := sl[stats.Cold] + sl[stats.Conf] + sl[stats.Cohe]
			out = append(out, claim("F7-q3-slock", "Q3 LockSLock misses exist, nearly all coherence",
				sl[stats.Cohe] > 0 && sl[stats.Cohe]*100 >= slTotal*95,
				fmt.Sprintf("%d of %d coherence", sl[stats.Cohe], slTotal)))
		}
	}

	// Figures 8 and 9 (Q6 + Q3 line sweep).
	lo := o
	lo.Queries = []string{"Q6", "Q3"}
	line, err := e.RunLineSweep(lo)
	if err != nil {
		return nil, err
	}
	d16 := findPoint(line, "Q6", 16).L2Miss[simm.GroupData]
	d256 := findPoint(line, "Q6", 256).L2Miss[simm.GroupData]
	out = append(out, claim("F8-data", "Q6 Data L2 misses drop >=4x from 16B to 256B lines",
		d16 >= 4*d256, fmt.Sprintf("%.1fx", float64(d16)/float64(d256))))
	p64 := findPoint(line, "Q6", 64).L1Miss[simm.GroupPriv]
	p256 := findPoint(line, "Q6", 256).L1Miss[simm.GroupPriv]
	out = append(out, claim("F8-priv", "Q6 Priv L1 misses rise past 64B lines",
		p256 > p64, fmt.Sprintf("%d -> %d", p64, p256)))
	t16 := findPoint(line, "Q3", 16).Bd.Total()
	t64 := findPoint(line, "Q3", 64).Bd.Total()
	t256 := findPoint(line, "Q3", 256).Bd.Total()
	out = append(out, claim("F9-min", "Q3 execution time minimized at 64B lines",
		t64 < t16 && t64 < t256, fmt.Sprintf("%d / %d / %d", t16, t64, t256)))

	// Figures 10 and 11 (Q6 cache sweep).
	co := o
	co.Queries = []string{"Q6"}
	cache, err := e.RunCacheSweep(co)
	if err != nil {
		return nil, err
	}
	dSmall := findPoint(cache, "Q6", 128).L2Miss[simm.GroupData]
	dBig := findPoint(cache, "Q6", 8192).L2Miss[simm.GroupData]
	flat := float64(dBig) / float64(dSmall)
	out = append(out, claim("F10-flat", "Q6 Data L2 curve flat across cache sizes (no temporal locality)",
		flat > 0.97 && flat < 1.03, fmt.Sprintf("ratio %.3f", flat)))
	pSmall := findPoint(cache, "Q6", 128).L1Miss[simm.GroupPriv]
	pBig := findPoint(cache, "Q6", 8192).L1Miss[simm.GroupPriv]
	out = append(out, claim("F10-priv", "Q6 Priv L1 misses collapse with cache size",
		pSmall >= 4*pBig, fmt.Sprintf("%.0fx", float64(pSmall)/float64(pBig))))

	// Figure 12.
	warm, err := e.RunWarmCache(o)
	if err != nil {
		return nil, err
	}
	get := func(target, warmer string) WarmResult {
		for _, w := range warm {
			if w.Target == target && w.Warmer == warmer {
				return w
			}
		}
		return WarmResult{}
	}
	coldD := get("Q12", "").L2[simm.GroupData]
	sameD := get("Q12", "Q12").L2[simm.GroupData]
	crossD := get("Q12", "Q3").L2[simm.GroupData]
	out = append(out, claim("F12-reuse", "Q12-after-Q12 removes most Data misses",
		sameD*10 <= coldD, stats.Pct(sameD, coldD)+" remain"))
	out = append(out, claim("F12-noreuse", "Q12-after-Q3 keeps most Data misses",
		crossD*10 >= coldD*7, stats.Pct(crossD, coldD)+" remain"))
	q3ColdIdx := get("Q3", "").L2[simm.GroupIndex]
	q3SameIdx := get("Q3", "Q3").L2[simm.GroupIndex]
	out = append(out, claim("F12-idx", "Q3-after-Q3 reuses indices",
		q3SameIdx < q3ColdIdx, fmt.Sprintf("%d -> %d", q3ColdIdx, q3SameIdx)))

	// Figure 13.
	po := o
	po.Queries = []string{"Q6", "Q12", "Q3"}
	pf, err := e.RunPrefetch(po)
	if err != nil {
		return nil, err
	}
	for _, r := range pf {
		switch r.Query {
		case "Q6", "Q12":
			out = append(out, claim("F13-"+r.Query, r.Query+" gains from prefetching",
				r.Opt.Total() < r.Base.Total(),
				fmt.Sprintf("%.1f%%", 100*(1-float64(r.Opt.Total())/float64(r.Base.Total())))))
			out = append(out, claim("F13-pmem-"+r.Query, r.Query+" PMem rises under prefetching",
				r.Opt.PMem() > r.Base.PMem(),
				fmt.Sprintf("%d -> %d", r.Base.PMem(), r.Opt.PMem())))
		case "Q3":
			delta := float64(r.Opt.Total())/float64(r.Base.Total()) - 1
			out = append(out, claim("F13-q3", "Q3 gains nothing meaningful from prefetching",
				delta > -0.03, fmt.Sprintf("%+.1f%%", 100*delta)))
		}
	}
	return out, nil
}

// ScorecardTable renders the claims.
func ScorecardTable(claims []Claim) *stats.Table {
	t := &stats.Table{Header: []string{"Claim", "Verdict", "Measured", "Statement"}}
	for _, c := range claims {
		verdict := "PASS"
		if !c.Pass {
			verdict = "CHECK"
		}
		t.AddRow(c.ID, verdict, c.Detail, c.Text)
	}
	return t
}
