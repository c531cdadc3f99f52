package main

import (
	"path/filepath"
	"testing"

	"github.com/libra-wlan/libra/internal/analysis"
)

// TestTreeClean runs the full suite over the whole module, as `make lint`
// does: every finding must be recorded in lint.baseline.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and analyzes the whole module")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	base, err := analysis.LoadBaseline(filepath.Join(root, "lint.baseline"))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analysis.RunN(root, []string{"./..."}, Analyzers, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range base.Filter(root, findings) {
		t.Error(f)
	}
}
