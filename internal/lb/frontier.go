package lb

import (
	"fmt"

	"fourindex/internal/sym"
)

// The capacity-vs-bound frontier: for every fast-memory capacity S there
// is a data-movement lower bound, and the paper's three thresholds
// (S >= n^2+n+1, S >= 3n^2+n+1, S >= |C|) are the knees where the curve
// flattens onto its memory-independent floor. Every quantity in this
// file is derived by the chain engine (internal/lb/chain) from the
// declarative chain.FourIndex(n, s) description; the historical closed
// forms are pinned against the engine's output by golden tests.

// Thresholds collects the closed-form capacities (in elements) at which
// the paper's bounds change regime for extent n with spatial symmetry s.
type Thresholds struct {
	// SingleTight is n^2+n+1: above it one contraction attains
	// I/O = |in|+|out| (Listing 5).
	SingleTight int64 `json:"singleTight"`
	// PairUseful is 3n^2: below it the Fusion Lemma makes pair fusion
	// futile (Section 5.1).
	PairUseful int64 `json:"pairUseful"`
	// PairFusion is 3n^2+n+1: above it a fused consecutive pair attains
	// I/O = |in|+|out| (Theorem 5.1, Listing 6).
	PairFusion int64 `json:"pairFusion"`
	// FullReuse is |C|: Theorem 6.2's necessary and sufficient capacity
	// for the full chain to attain I/O = |A|+|C|.
	FullReuse int64 `json:"fullReuse"`
	// FullReuseSufficient is |C| + 2n^3, the capacity at which Listing 7
	// concretely achieves the full-reuse bound.
	FullReuseSufficient int64 `json:"fullReuseSufficient"`
}

// ThresholdsFor returns the knee capacities for (n, s), derived by the
// chain engine.
func ThresholdsFor(n, s int) Thresholds {
	t := fourIndexChain(n, s).Thresholds()
	return Thresholds{
		SingleTight:         t.SingleTight,
		PairUseful:          t.PairUseful,
		PairFusion:          t.PairFusion,
		FullReuse:           t.FullReuse,
		FullReuseSufficient: t.FullReuseSufficient,
	}
}

// ConfigBoundAt returns the I/O lower bound (elements moved between slow
// and fast memory) of fusion configuration c at fast-memory capacity S,
// summed over the configuration's fused groups. Each group's bound is
// regime-aware — below the capacity at which the paper proves the
// memory-independent floor attainable, the matmul (Dongarra) and Fusion
// Lemma terms apply; above it the bound is exactly the floor:
//
//   - a single contraction attains |in|+|out| for S >= n^2+n+1
//     (Listing 5); below, max(1.73 n^5/sqrt(S), |in|+|out|);
//   - a fused pair attains |in|+|out| for S >= 3n^2+n+1 (Theorem 5.1);
//     below, the Fusion Lemma bound lb1+lb2-2|mid| applies;
//   - the full op1234 chain attains |A|+|C| iff S >= |C| (Theorem 6.2);
//     below |C| full reuse is impossible and the best achievable
//     decomposition floor is the op12/34 pairing, so the curve jumps by
//     2|O2| at the |C| knee.
//
// The result is monotone non-increasing in S (the frontier property the
// tests pin).
func ConfigBoundAt(c FusionConfig, n, s int, S int64) float64 {
	mustCapacity(S)
	b, err := fourIndexChain(n, s).ConfigBoundAt(c.engine(), S)
	if err != nil {
		panic(fmt.Sprintf("lb: bad fusion config %v: %v", c.Groups, err))
	}
	return b
}

// ConfigFlatThreshold returns the capacity at which ConfigBoundAt
// flattens onto its memory-independent floor ConfigIO: the largest of
// the per-group tightness thresholds. Beyond it, more fast memory cannot
// reduce the configuration's data movement.
func ConfigFlatThreshold(c FusionConfig, n, s int) int64 {
	t, err := fourIndexChain(n, s).ConfigFlatThreshold(c.engine())
	if err != nil {
		panic(fmt.Sprintf("lb: bad fusion config %v: %v", c.Groups, err))
	}
	return t
}

// ConfigMinMemory returns the minimum aggregate-memory footprint (in
// elements) at which the schedule family realising fusion configuration
// c can run at all, from the Section 2/7 memory models evaluated at
// their smallest tile widths — derived by the chain engine from the
// four-index chain's declared streaming slabs. Below it the
// configuration's region of the frontier is infeasible (by Theorem 6.2
// no amount of scheduling helps).
func ConfigMinMemory(c FusionConfig, n, s int) int64 {
	v, err := fourIndexChain(n, s).ConfigMinMemory(c.engine())
	if err != nil {
		panic(fmt.Sprintf("lb: bad fusion config %v: %v", c.Groups, err))
	}
	return v
}

// CapacityGrid builds the deterministic capacity sweep for (n, s): a
// geometric grid with perDecade points per decade (<= 0 selects 8) from
// half the single-contraction threshold up to twice the unfused memory
// footprint — the span over which every knee and every feasibility edge
// lives — with the closed-form thresholds inserted exactly, so detected
// knees coincide with the paper's formulas rather than landing between
// grid points. The result is strictly increasing, duplicate-free, and a
// pure function of its arguments.
func CapacityGrid(n, s, perDecade int) []int64 {
	return fourIndexChain(n, s).CapacityGrid(perDecade)
}

// CurvePoint is one sample of a configuration's frontier curve.
type CurvePoint struct {
	// S is the fast-memory capacity in elements.
	S int64 `json:"s"`
	// BoundElements is the I/O lower bound at S.
	BoundElements float64 `json:"boundElements"`
}

// Curve is one fusion configuration's capacity-vs-bound frontier.
type Curve struct {
	// Config is the fusion configuration in op-notation ("op12/34").
	Config string `json:"config"`
	// FloorElements is the memory-independent floor ConfigIO — the value
	// the curve flattens onto.
	FloorElements int64 `json:"floorElements"`
	// FlatAtS is the smallest grid capacity at which the bound equals
	// the floor (the detected knee; equals ConfigFlatThreshold because
	// the grid contains the closed-form thresholds exactly).
	FlatAtS int64 `json:"flatAtS"`
	// MinMemoryElements is the feasibility edge from ConfigMinMemory.
	MinMemoryElements int64 `json:"minMemoryElements"`
	// Points samples the bound over the capacity grid, ascending in S.
	Points []CurvePoint `json:"points"`
}

// ComputeCurve sweeps fusion configuration c over the capacity grid and
// returns its frontier curve, including the detected flattening knee.
func ComputeCurve(c FusionConfig, n, s int, grid []int64) Curve {
	cv, err := fourIndexChain(n, s).ComputeCurve(c.engine(), grid)
	if err != nil {
		panic(fmt.Sprintf("lb: ComputeCurve %v: %v", c.Groups, err))
	}
	out := Curve{
		Config:            cv.Config,
		FloorElements:     cv.FloorElements,
		FlatAtS:           cv.FlatAtS,
		MinMemoryElements: cv.MinMemoryElements,
		Points:            make([]CurvePoint, len(cv.Points)),
	}
	for i, p := range cv.Points {
		out.Points[i] = CurvePoint{S: p.S, BoundElements: p.BoundElements}
	}
	return out
}

// MemoryFused123 is the memory model of the op123/4 schedule (Fused123):
// the fused first three contractions stream A/O1/O2 slabs of fused-loop
// width tl while materialising the full O3 and the resident output C:
//
//	Ni*Nj*Nk*Tl/2 + Na*Nj*Nk*Tl + Na*Nb*Nk*Tl/2 + |O3| + |C|
func MemoryFused123(n, s, tl int) int64 {
	if tl <= 0 || tl > n {
		panic(fmt.Sprintf("lb: fused tile width %d out of range (0,%d]", tl, n))
	}
	n64, t64 := int64(n), int64(tl)
	n3t := n64 * n64 * n64 * t64
	sz := sym.ExactSizes(n, s)
	return n3t/2 + n3t + n3t/2 + sz.O3 + sz.C
}
