package experiments

import (
	"sync"
	"testing"
)

// figure2 simulates all of Figure 2 at most once per test binary run:
// the conformance test and the report test check the same outcomes.
var figure2 = sync.OnceValues(func() ([]Outcome, error) { return RunFigure("") })

// TestFullFigure2Conformance simulates every bar group of Figure 2 and
// asserts zero shape deviations from the paper's prose-stated outcomes.
// This is the repository's headline integration test (~2 minutes); skip
// it with -short.
func TestFullFigure2Conformance(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figure 2 simulation (~2 min)")
	}
	outs, err := figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 17 {
		t.Fatalf("simulated %d points, want 17", len(outs))
	}
	for _, o := range outs {
		if bad := CheckShape(o); len(bad) != 0 {
			t.Errorf("%s %s/%d: %v", o.Fig, o.System, o.Cores, bad)
		}
		t.Logf("%s %-11s %s/%-4d hybrid=%s(%v) nwchem=%s speedup=%.2f",
			o.Fig, o.Molecule, o.System, o.Cores,
			FormatKs(o.HybridKs, false), o.HybridScheme,
			FormatKs(o.NWChemKs, o.NWChemFailed), o.Speedup)
	}
}
