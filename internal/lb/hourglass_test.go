package lb

import (
	"math"
	"testing"

	"fourindex/internal/lb/chain"
)

// TestHourglassMatmulTighterThanDongarra pins the point of the
// hourglass analysis: in the bandwidth-dominated regime its 2/sqrt(S)
// constant strictly exceeds Dongarra's 1.73/sqrt(S), so the bound is
// tighter (larger) wherever the -2S boundary term is negligible.
func TestHourglassMatmulTighterThanDongarra(t *testing.T) {
	var n int64 = 512
	for _, s := range []int64{1 << 10, 1 << 14, 1 << 18} {
		hg := HourglassMatmulLB(n*n*n, n, n, s)
		dg := chain.Dongarra(n*n*n, n, n, s)
		if hg <= dg {
			t.Errorf("S=%d: hourglass %g not above Dongarra %g", s, hg, dg)
		}
	}
}

// TestHourglassContractionLB checks the closed form, the in+out floor,
// and the regimes on either side of it.
func TestHourglassContractionLB(t *testing.T) {
	var in, out int64 = 1000, 2000

	// Large S: the -2S term swamps flops/sqrt(S); floor wins.
	if got := HourglassContractionLB(1<<20, 1<<30, in, out); got != float64(in+out) {
		t.Errorf("large-S: got %g, want floor %d", got, in+out)
	}

	// Small S: the bandwidth term dominates and matches the closed form.
	var flops, s int64 = 1 << 30, 1 << 10
	want := float64(flops)/math.Sqrt(float64(s)) - 2*float64(s)
	if got := HourglassContractionLB(flops, s, in, out); got != want {
		t.Errorf("small-S: got %g, want %g", got, want)
	}

	// The bound never drops below the compulsory floor.
	if got := HourglassContractionLB(0, 1, in, out); got < float64(in+out) {
		t.Errorf("floor violated: %g < %d", got, in+out)
	}
}

// TestHourglassFlopsDerivedBelowDense is the audit-safety property: for
// a spatially symmetric problem the executed flops shrink ~s^2-fold
// while the dense ContractionLB keeps pricing the full iteration space,
// so the flops-derived hourglass bound must fall below the dense bound
// in the bandwidth regime — that headroom is exactly why dense-bound
// attained fractions exceeded 1.0.
func TestHourglassFlopsDerivedBelowDense(t *testing.T) {
	var n int64 = 140
	sym := int64(4)
	in, out := n*n*n*n/(2*sym), n*n*n*n/8
	denseFlops := 2 * n * n * n * n * n
	symFlops := denseFlops / (sym * sym)
	for _, s := range []int64{1 << 12, 1 << 16} {
		dense := ContractionLB(n, s, in, out)
		tight := HourglassContractionLB(symFlops, s, in, out)
		if tight >= dense {
			t.Errorf("S=%d: symmetric hourglass bound %g not below dense bound %g", s, tight, dense)
		}
	}
}

// TestHourglassBadSPanics keeps the package's programmer-error contract.
func TestHourglassBadSPanics(t *testing.T) {
	for _, f := range []func(){
		func() { HourglassMatmulLB(8, 8, 8, 0) },
		func() { HourglassContractionLB(1024, -1, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic for non-positive S")
				}
			}()
			f()
		}()
	}
}
