package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestAnalyzerTable pins the whole analysis of Q6 at scale 0.001 —
// reference count, per-structure table and the locality summary — to
// the committed output, and checks that analyzing the saved trace
// (-record, then -replay) prints the same bytes.
func TestAnalyzerTable(t *testing.T) {
	want, err := os.ReadFile("testdata/q6-scale0.001.txt")
	if err != nil {
		t.Fatal(err)
	}
	blob := filepath.Join(t.TempDir(), "q6.trace")
	var live bytes.Buffer
	if err := run(&live, "Q6", 0.001, blob, ""); err != nil {
		t.Fatal(err)
	}
	if live.String() != string(want) {
		t.Errorf("live analysis:\n%s\nwant:\n%s", live.String(), want)
	}
	var saved bytes.Buffer
	if err := run(&saved, "", 0, "", blob); err != nil {
		t.Fatal(err)
	}
	if saved.String() != string(want) {
		t.Errorf("analysis of the saved trace:\n%s\nwant:\n%s", saved.String(), want)
	}
}
