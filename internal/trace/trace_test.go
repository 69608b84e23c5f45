package trace

import (
	"testing"

	"repro/internal/simm"
)

func analyzerRig(t *testing.T) (*Analyzer, simm.Addr, simm.Addr) {
	t.Helper()
	mem := simm.New(1)
	data := mem.AllocRegion("data", 1<<16, simm.CatData, 0)
	idx := mem.AllocRegion("idx", 1<<16, simm.CatIndex, 0)
	return NewAnalyzer(mem), data.Base, idx.Base
}

func TestRefsAndFootprint(t *testing.T) {
	an, data, _ := analyzerRig(t)
	// Touch 10 distinct lines once each.
	for i := 0; i < 10; i++ {
		an.Ref(0, data+simm.Addr(i*LineSize), 8, false)
	}
	p := an.Profile(simm.CatData)
	if p.Refs != 10 || p.Lines != 10 {
		t.Errorf("refs=%d lines=%d", p.Refs, p.Lines)
	}
	if got := p.RefsPerLine(); got != 1.0 {
		t.Errorf("refs/line = %v", got)
	}
	if an.TotalRefs() != 10 {
		t.Errorf("total = %d", an.TotalRefs())
	}
}

func TestImmediateVsDistantReuse(t *testing.T) {
	an, data, _ := analyzerRig(t)
	an.Ref(0, data, 8, false)
	an.Ref(0, data, 8, false) // immediate re-reference
	p := an.Profile(simm.CatData)
	if p.ImmediateRefs != 1 || p.DistantRefs != 0 {
		t.Errorf("imm=%d dist=%d", p.ImmediateRefs, p.DistantRefs)
	}
	// Push more than ImmediateWindow intervening references.
	for i := 0; i < ImmediateWindow+10; i++ {
		an.Ref(0, data+simm.Addr((i+1)*LineSize), 8, false)
	}
	an.Ref(0, data, 8, false) // distant re-reference
	p = an.Profile(simm.CatData)
	if p.DistantRefs != 1 {
		t.Errorf("distant = %d, want 1", p.DistantRefs)
	}
}

func TestLineUtilization(t *testing.T) {
	an, data, _ := analyzerRig(t)
	// Touch half the words of one line.
	for w := 0; w < 4; w++ {
		an.Ref(0, data+simm.Addr(w*8), 8, false)
	}
	p := an.Profile(simm.CatData)
	if got := p.LineUtilization(); got != 0.5 {
		t.Errorf("utilization = %v, want 0.5", got)
	}
	// A 16-byte access covers two words.
	an.Reset()
	an.Ref(0, data, 16, false)
	if got := an.Profile(simm.CatData).WordsTouched; got != 2 {
		t.Errorf("words = %d, want 2", got)
	}
}

func TestCategorySeparation(t *testing.T) {
	an, data, idx := analyzerRig(t)
	an.Ref(0, data, 8, false)
	an.Ref(0, idx, 8, true)
	if an.Profile(simm.CatData).Refs != 1 || an.Profile(simm.CatIndex).Refs != 1 {
		t.Error("categories mixed")
	}
	if an.Profile(simm.CatIndex).Writes != 1 {
		t.Error("write not counted")
	}
}

func TestResetClears(t *testing.T) {
	an, data, _ := analyzerRig(t)
	an.Ref(0, data, 8, false)
	an.Reset()
	if an.TotalRefs() != 0 || an.Profile(simm.CatData).Refs != 0 {
		t.Error("reset incomplete")
	}
}

func TestLineStraddlingAccessClamped(t *testing.T) {
	an, data, _ := analyzerRig(t)
	// An 8-byte access straddling a line boundary is clamped to the
	// first line's words (the tracer emits per-aligned-piece in the
	// engine, so this is the degenerate direct call).
	an.Ref(0, data+simm.Addr(LineSize-4), 8, false)
	p := an.Profile(simm.CatData)
	if p.Lines != 1 {
		t.Errorf("lines = %d", p.Lines)
	}
}

func TestTableRenders(t *testing.T) {
	an, data, idx := analyzerRig(t)
	an.Ref(0, data, 8, false)
	an.Ref(0, idx, 8, false)
	tbl := an.Table()
	if len(tbl.Rows) != 2 {
		t.Errorf("rows = %d, want 2 (only touched categories)", len(tbl.Rows))
	}
}
