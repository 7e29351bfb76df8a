// Package lb implements the paper's data-movement lower-bound analysis
// (Sections 4-6) for the four-index transform: per-contraction tight
// bounds, the enumeration and ordering of fusion configurations, the
// necessary/sufficient conditions for full intermediate reuse, and the
// memory/flop formulas behind the fuse/unfuse hybrid driver (Section
// 7.4). The published matrix-multiplication bounds and the Fusion Lemma
// themselves live in internal/lb/chain.
//
// Since the generalized bound engine landed, every Section 5/6 quantity
// here is *derived* by internal/lb/chain from the declarative
// chain.FourIndex(n, s) description; this package is the four-index
// façade over the engine, and the historical closed forms survive as
// golden tests of the engine's output. The panic-on-bad-input contract
// is also historical and kept for internal programmer errors only —
// code paths fed by user input (fouridxd payloads, CLI flags) must call
// the chain engine directly and handle its typed errors.
//
// All bounds are in elements (words) unless named *Bytes.
package lb

import (
	"fmt"
	"math"

	"fourindex/internal/lb/chain"
)

// mustCapacity panics on a non-positive fast-memory size S: the
// programmer-error form of chain.CheckCapacity for lb's internal callers.
func mustCapacity(s int64) {
	if err := chain.CheckCapacity(s); err != nil {
		panic("lb: " + err.Error())
	}
}

// fourIndexChain builds the engine description of the four-index chain,
// panicking on invalid extents — lb's internal callers only reach it
// with already-validated benchmark sizes.
func fourIndexChain(n, s int) *chain.Chain {
	ch, err := chain.FourIndex(n, s)
	if err != nil {
		panic(fmt.Sprintf("lb: bad four-index extents (n=%d, s=%d): %v", n, s, err))
	}
	return ch
}

// ContractionLB returns the I/O lower bound for one tensor contraction of
// the transform viewed as an (n^3 x n) x (n x n) matrix product with
// input size in and output size out (Section 5.1):
//
//	max( Dongarra(n^3, n, n, S), in + out )
//
// For S >= n^2 + n + 1 the sum of input and output sizes is tight
// (Listing 5 achieves it).
func ContractionLB(n, s, in, out int64) float64 {
	mustCapacity(s)
	return chain.MatmulOpLB(n*n*n, n, n, s, in, out)
}

// HourglassMatmulLB returns the hourglass-tightened matmul I/O bound of
// Eyraud-Dubois et al. ("Tightening I/O Lower Bounds through the
// Hourglass Dependency Pattern"): partitioning the CDAG by the hourglass
// pattern around each output's reduction tree sharpens the
// Hong-Kung-style constant to the tight
//
//	2 * ni*nj*nk / sqrt(S) - 2S
//
// for an (ni x nj) by (nj x nk) product — strictly above Dongarra's
// 1.73/sqrt(S) form once S is small against the iteration space, and
// matching the best known blocked schedules up to the -2S boundary term.
func HourglassMatmulLB(ni, nj, nk, s int64) float64 {
	mustCapacity(s)
	v := 2*float64(ni)*float64(nj)*float64(nk)/math.Sqrt(float64(s)) - 2*float64(s)
	if v < 0 {
		return 0
	}
	return v
}

// HourglassContractionLB returns the hourglass-tightened I/O lower
// bound for one contraction phase that performed the given flop count
// (2 per elementary product, i.e. blas.GemmFlops accounting) against
// fast memory S, with input size in and output size out:
//
//	max( flops/sqrt(S) - 2S, in + out )
//
// Unlike ContractionLB, which prices the full dense (n^3 x n) x (n x n)
// iteration space, this bound is derived from the arithmetic the phase
// actually executed — flops/2 elementary products — so spatial-symmetry
// packing (which shrinks the iteration space s^2-fold) and fused-
// schedule recomputation are priced in instead of assumed away. That is
// what makes it safe to audit against: the dense ContractionLB can
// exceed a symmetric run's true data movement (attained fractions above
// 1.0), while this bound never can.
func HourglassContractionLB(flops, s, in, out int64) float64 {
	mustCapacity(s)
	floor := float64(in + out)
	v := float64(flops)/math.Sqrt(float64(s)) - 2*float64(s)
	if v < floor {
		return floor
	}
	return v
}

// SingleTightThreshold returns the fast-memory size above which one
// contraction's I/O bound |in|+|out| is achievable: n^2 + n + 1
// (Listing 5: B plus one A-row plus a scalar).
func SingleTightThreshold(n int64) int64 { return n*n + n + 1 }

// PairFusionThreshold returns the fast-memory size above which fusing two
// consecutive contractions achieves I/O = |in|+|out| (Theorem 5.1,
// Listing 6): 3n^2 + n + 1.
func PairFusionThreshold(n int64) int64 { return 3*n*n + n + 1 }

// PairFusionUseful reports whether the Fusion Lemma permits useful fusion
// of a consecutive contraction pair (Section 5.1): below ~3n^2 of fast
// memory the fused bound 3.46 n^5/sqrt(S) exceeds the unfused cost, so
// fusion cannot help.
func PairFusionUseful(n, s int64) bool {
	return s >= 3*n*n
}

// FullReusePossible is Theorem 6.2's necessary (and, by Listing 7,
// sufficient) condition: full reuse of all intermediates — I/O = |A|+|C|
// — is achievable iff the fast memory holds the output tensor.
func FullReusePossible(s, sizeC int64) bool { return s >= sizeC }

// FullReuseSufficientS returns the fast-memory size at which Listing 7
// concretely achieves I/O = |A|+|C|: |C| + 2n^3 working space.
func FullReuseSufficientS(n int64, sizeC int64) int64 {
	return sizeC + 2*n*n*n
}
