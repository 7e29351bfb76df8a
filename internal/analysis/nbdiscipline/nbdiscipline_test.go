package nbdiscipline_test

import (
	"testing"

	"fourindex/internal/analysis"
	"fourindex/internal/analysis/analysistest"
	"fourindex/internal/analysis/nbdiscipline"
)

func TestNbDiscipline(t *testing.T) {
	analysistest.Run(t, nbdiscipline.Analyzer, "./testdata/src/nb")
}

func TestNbFlow(t *testing.T) {
	analysistest.Run(t, nbdiscipline.Analyzer, "./testdata/src/nbflow")
}

// TestSuppression checks the //lint:ignore contract on the nbsuppress
// fixture: a justified directive suppresses, an unjustified one fails
// loudly, and a directive for another analyzer does not apply.
func TestSuppression(t *testing.T) {
	diags := diagsFor(t, nbdiscipline.Analyzer, "./testdata/src/nbsuppress")

	// The justified call must produce nothing, so only two nbdiscipline
	// discards may survive (unjustified + wrong-analyzer).
	var unjustifiedDir int
	discards, ignores := 0, 0
	for _, d := range diags {
		switch d.Analyzer {
		case "nbdiscipline":
			discards++
		case analysis.SuppressionAnalyzer:
			ignores++
			unjustifiedDir = d.Pos.Line
		}
	}
	if discards != 2 {
		t.Errorf("got %d nbdiscipline findings, want 2 (unjustified + wrong-analyzer; justified suppressed): %v", discards, diags)
	}
	if ignores != 1 {
		t.Errorf("got %d lintignore findings, want 1 for the unjustified directive: %v", ignores, diags)
	}
	// The unjustified directive's finding must sit directly above a
	// surviving discard: suppression failed loudly, not silently.
	foundPair := false
	for _, d := range diags {
		if d.Analyzer == "nbdiscipline" && d.Pos.Line == unjustifiedDir+1 {
			foundPair = true
		}
	}
	if !foundPair {
		t.Errorf("unjustified directive at line %d did not leave the next-line finding in place: %v", unjustifiedDir, diags)
	}
}

// diagsFor loads one fixture package and runs a single analyzer.
func diagsFor(t *testing.T, a *analysis.Analyzer, dir string) []analysis.Diagnostic {
	t.Helper()
	pkgs, err := analysis.Load("", dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	var out []analysis.Diagnostic
	for _, pkg := range pkgs {
		ds, err := analysis.RunPackage([]*analysis.Analyzer{a}, pkg)
		if err != nil {
			t.Fatalf("running on %s: %v", pkg.ImportPath, err)
		}
		out = append(out, ds...)
	}
	return out
}
