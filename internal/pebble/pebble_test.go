package pebble

import (
	"testing"

	"fourindex/internal/cdag"
	"fourindex/internal/lb/chain"
)

func TestGameRules(t *testing.T) {
	g := cdag.NewGraph()
	a := g.AddInput("a")
	b := g.AddInput("b")
	c := g.AddOp("c", a, b)
	g.MarkOutput(c)

	gm := NewGame(g, 3)
	if err := gm.Compute(c); err == nil {
		t.Error("compute with non-red predecessors should fail")
	}
	if err := gm.Load(a); err != nil {
		t.Fatal(err)
	}
	if err := gm.Load(a); err == nil {
		t.Error("double load should fail")
	}
	if err := gm.Load(b); err != nil {
		t.Fatal(err)
	}
	if err := gm.Compute(c); err != nil {
		t.Fatal(err)
	}
	if gm.RedCount() != 3 {
		t.Errorf("red count = %d", gm.RedCount())
	}
	if err := gm.Compute(c); err == nil {
		t.Error("recomputation should fail (no-repebbling variant)")
	}
	if gm.Complete() {
		t.Error("output not yet blue")
	}
	if err := gm.Store(c); err != nil {
		t.Fatal(err)
	}
	if !gm.Complete() {
		t.Error("output stored; game should be complete")
	}
	if gm.IO() != 3 || gm.Loads() != 2 || gm.Stores() != 1 {
		t.Errorf("IO=%d loads=%d stores=%d", gm.IO(), gm.Loads(), gm.Stores())
	}
	if err := gm.Delete(c); err != nil {
		t.Fatal(err)
	}
	if err := gm.Delete(c); err == nil {
		t.Error("deleting a non-red pebble should fail")
	}
}

func TestGameCapacity(t *testing.T) {
	g := cdag.NewGraph()
	a := g.AddInput("a")
	b := g.AddInput("b")
	c := g.AddOp("c", a, b)
	g.MarkOutput(c)
	gm := NewGame(g, 2)
	if err := gm.Load(a); err != nil {
		t.Fatal(err)
	}
	if err := gm.Load(b); err != nil {
		t.Fatal(err)
	}
	if err := gm.Compute(c); err == nil {
		t.Error("compute beyond red capacity should fail")
	}
	if err := gm.Store(a); err != nil { // a back to blue
		t.Fatal(err)
	}
	if err := gm.Delete(a); err != nil {
		t.Fatal(err)
	}
	// Still cannot compute: a is no longer red.
	if err := gm.Compute(c); err == nil {
		t.Error("compute with evicted operand should fail")
	}
}

func TestGameInvalidMoves(t *testing.T) {
	g := cdag.NewGraph()
	a := g.AddInput("a")
	op := g.AddOp("op", a)
	g.MarkOutput(op)
	gm := NewGame(g, 2)
	if err := gm.Store(a); err == nil {
		t.Error("store without red pebble should fail")
	}
	if err := gm.Load(op); err == nil {
		t.Error("load without blue pebble should fail")
	}
	if err := gm.Compute(a); err == nil {
		t.Error("compute on an input should fail")
	}
}

func TestNewGamePanicsOnBadS(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("S = 0 did not panic")
		}
	}()
	NewGame(cdag.NewGraph(), 0)
}

func TestSimulateTinyGraph(t *testing.T) {
	g := cdag.NewGraph()
	a := g.AddInput("a")
	b := g.AddInput("b")
	c := g.AddOp("c", a, b)
	g.MarkOutput(c)
	res, err := Simulate(g, 3, []cdag.VID{c})
	if err != nil {
		t.Fatal(err)
	}
	// 2 loads + 1 output store.
	if res.Loads != 2 || res.Stores != 1 || res.IO() != 3 {
		t.Errorf("result = %+v", res)
	}
	if res.PeakRed != 3 {
		t.Errorf("peak red = %d", res.PeakRed)
	}
}

func TestSimulateOrderValidation(t *testing.T) {
	g := cdag.NewGraph()
	a := g.AddInput("a")
	c := g.AddOp("c", a)
	d := g.AddOp("d", c)
	g.MarkOutput(d)
	if _, err := Simulate(g, 4, []cdag.VID{a, c, d}); err == nil {
		t.Error("order containing an input should fail")
	}
	if _, err := Simulate(g, 4, []cdag.VID{c, c, d}); err == nil {
		t.Error("order computing a vertex twice should fail")
	}
	if _, err := Simulate(g, 4, []cdag.VID{c}); err == nil {
		t.Error("order missing an op should fail")
	}
}

func TestSimulateTooSmallS(t *testing.T) {
	g := cdag.NewGraph()
	a := g.AddInput("a")
	b := g.AddInput("b")
	c := g.AddInput("c")
	op := g.AddOp("op", a, b, c)
	g.MarkOutput(op)
	if _, err := Simulate(g, 3, []cdag.VID{op}); err == nil {
		t.Error("S=3 cannot hold 3 operands plus the result")
	}
	if _, err := Simulate(g, 4, []cdag.VID{op}); err != nil {
		t.Errorf("S=4 should succeed: %v", err)
	}
}

func TestSimulateSpillRoundTrip(t *testing.T) {
	// x is produced, then many unrelated values flood the cache before
	// x is consumed: x must be spilled and reloaded exactly once.
	g := cdag.NewGraph()
	src := g.AddInput("src")
	x := g.AddOp("x", src)
	var noise []cdag.VID
	for i := 0; i < 6; i++ {
		in := g.AddInput("nin")
		v := g.AddOp("noise", in)
		g.MarkOutput(v)
		noise = append(noise, v)
	}
	y := g.AddOp("y", x)
	g.MarkOutput(y)
	order := append([]cdag.VID{x}, noise...)
	order = append(order, y)
	res, err := Simulate(g, 2, order)
	if err != nil {
		t.Fatal(err)
	}
	// Loads: src, 6 noise inputs, x reload = 8.
	// Stores: x spill, 6 noise outputs, y = 8.
	if res.Loads != 8 || res.Stores != 8 {
		t.Errorf("loads=%d stores=%d, want 8/8", res.Loads, res.Stores)
	}
}

// Section 2.3 (Figure 1): with fast memory too small for B, the untiled
// matmul moves ~N^3 elements while the tiled version moves ~2N^3/T.
func TestMatmulTilingReducesIO(t *testing.T) {
	n := 12
	m := cdag.BuildMatMul(n)
	tSize := 4
	s := 3*tSize*tSize + 3 // room for one tile of each matrix
	untiled, err := Simulate(m.G, s, OrderMatMulUntiled(m))
	if err != nil {
		t.Fatal(err)
	}
	tiled, err := Simulate(m.G, s, OrderMatMulTiled(m, tSize))
	if err != nil {
		t.Fatal(err)
	}
	if tiled.IO() >= untiled.IO() {
		t.Errorf("tiled I/O %d should beat untiled %d", tiled.IO(), untiled.IO())
	}
	// Both measured I/Os dominate the scaled Hong-Kung bound and the
	// trivial bound (inputs + outputs).
	trivial := 3 * n * n
	for name, r := range map[string]Result{"tiled": tiled, "untiled": untiled} {
		if r.IO() < trivial {
			t.Errorf("%s I/O %d below trivial bound %d", name, r.IO(), trivial)
		}
	}
}

// Any valid schedule's measured I/O must dominate the Irony et al.
// lower bound (measured >= LB is the defining property of a bound).
func TestMeasuredIODominatesLowerBounds(t *testing.T) {
	n := 10
	m := cdag.BuildMatMul(n)
	for _, s := range []int{8, 16, 64, 256} {
		for name, order := range map[string][]cdag.VID{
			"untiled": OrderMatMulUntiled(m),
			"tiled2":  OrderMatMulTiled(m, 2),
			"tiled4":  OrderMatMulTiled(m, 4),
		} {
			res, err := Simulate(m.G, s, order)
			if err != nil {
				continue // S too small for this order's working set
			}
			irony := chain.Irony(int64(n), int64(n), int64(n), int64(s))
			if float64(res.IO()) < irony {
				t.Errorf("S=%d %s: measured %d < Irony bound %v", s, name, res.IO(), irony)
			}
		}
	}
}

// Section 4's square-chain example: for two chained N x N products,
// fusion is close to futile — the Fusion Lemma caps the saving near 27%
// of one matmul's I/O. With memory for both operand matrices, measured
// fused and unfused I/O are essentially identical, and the Fusion Lemma
// bound holds for the fused schedule.
func TestChainFusionNearFutileForSquare(t *testing.T) {
	n := 8
	ch := cdag.BuildMatMulChain(n)
	s := 2*n*n + 2*n + 4 // both resident matrices + a row + chains
	unfused, err := Simulate(ch.G, s, OrderChainUnfused(ch))
	if err != nil {
		t.Fatal(err)
	}
	fused, err := Simulate(ch.G, s, OrderChainFused(ch))
	if err != nil {
		t.Fatal(err)
	}
	if fused.IO() > unfused.IO() {
		t.Errorf("fused chain I/O %d should not exceed unfused %d at this S", fused.IO(), unfused.IO())
	}
	saving := unfused.IO() - fused.IO()
	perMatmul := unfused.IO() / 2
	if saving > perMatmul*30/100 {
		t.Errorf("square-chain fusion saved %d (>30%% of one matmul's %d); Section 4 rules that out", saving, perMatmul)
	}
	// Fusion Lemma: fused I/O >= LB(C1) + LB(C2) - 2|O1| with the
	// trivial per-matmul bound |in|+|out| = 3n^2.
	lemma := chain.FusionLemma(float64(3*n*n), float64(3*n*n), int64(n*n))
	if float64(fused.IO()) < lemma {
		t.Errorf("fused I/O %d violates Fusion Lemma bound %v", fused.IO(), lemma)
	}
}

// Theorem 5.1 empirically: fusing the first two contractions with
// S >= 3n^2 + n + O(1) achieves I/O = |A| + |O2| (+ B traffic + the
// later contractions' traffic). We isolate the fused pair by comparing
// against the unfused schedule: the pair fusion eliminates exactly O1's
// round trip, 2|O1| = 2n^4.
func TestTheorem51FusedPairEliminatesO1(t *testing.T) {
	n := 4
	f := cdag.BuildFourIndex(n)
	s := 3*n*n + 2*n + 8
	unfused, err := Simulate(f.G, s, OrderFourIndexUnfused(f))
	if err != nil {
		t.Fatal(err)
	}
	fused, err := Simulate(f.G, s, OrderFourIndexFusedPair(f))
	if err != nil {
		t.Fatal(err)
	}
	n4 := n * n * n * n
	saving := unfused.IO() - fused.IO()
	// op12 fusion kills O1's 2n^4 round trip and op34 fusion kills
	// O3's; edge effects (B reloads, slab spills at this modest S) eat
	// a little of it, so require most of O1's round trip plus O3's.
	if saving < 3*n4 {
		t.Errorf("pair fusion saved %d, want at least 3n^4 = %d (toward 2|O1|+2|O3| = %d)", saving, 3*n4, 4*n4)
	}
	if fused.IO() >= unfused.IO() {
		t.Error("pair fusion must strictly reduce I/O")
	}
}

// Theorem 6.1/6.2 and Listing 7 empirically: with S >= |C| + working
// slabs, the fully fused schedule's I/O is exactly
// |A| + |B1..B4| + |C| — full reuse of all intermediates. With S < |C|
// the same schedule is forced to spill.
func TestListing7AchievesFullReuseBound(t *testing.T) {
	n := 3
	f := cdag.BuildFourIndex(n)
	n4 := n * n * n * n
	sBig := n4 + 3*n*n*n + 4*n*n + 2*n + 8
	res, err := Simulate(f.G, sBig, OrderFourIndexFullyFused(f))
	if err != nil {
		t.Fatal(err)
	}
	want := n4 + 4*n*n + n4 // load A + load Bs + store C
	if res.IO() != want {
		t.Errorf("fully fused I/O = %d, want exactly |A|+|B|+|C| = %d", res.IO(), want)
	}

	// Necessary condition: with S below |C| the C partials cannot all
	// stay resident, so I/O must exceed the full-reuse bound.
	sSmall := n4 - 1 // below |C|, still enough to compute
	res2, err := Simulate(f.G, sSmall, OrderFourIndexFullyFused(f))
	if err != nil {
		t.Fatal(err)
	}
	if res2.IO() <= want {
		t.Errorf("S < |C| gave I/O %d, must exceed full-reuse bound %d (Theorem 6.2)", res2.IO(), want)
	}
}

// The measured peak red count of the fully fused schedule confirms the
// S >= |C| requirement: the resident set genuinely contains all of C.
func TestFullyFusedPeakRedAtLeastC(t *testing.T) {
	n := 3
	f := cdag.BuildFourIndex(n)
	n4 := n * n * n * n
	res, err := Simulate(f.G, 4*n4, OrderFourIndexFullyFused(f))
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakRed < n4 {
		t.Errorf("peak red %d < |C| = %d", res.PeakRed, n4)
	}
}

// Sanity: the unfused four-index I/O approximates the Section 5.3
// op1/2/3/4 bound |A| + 2|O1| + 2|O2| + 2|O3| + |C| (plus B traffic)
// when each contraction runs in its Listing 5 order with adequate S.
func TestUnfusedIOMatchesSection53(t *testing.T) {
	n := 4
	f := cdag.BuildFourIndex(n)
	s := n*n + 2*n + 6
	res, err := Simulate(f.G, s, OrderFourIndexUnfused(f))
	if err != nil {
		t.Fatal(err)
	}
	n4 := n * n * n * n
	lower := 7 * n4           // |A| + 2(|O1|+|O2|+|O3|) + |C| without symmetry
	upper := lower + 10*n*n*n // slack for B reloads and edge effects
	if res.IO() < lower || res.IO() > upper {
		t.Errorf("unfused I/O = %d, want in [%d, %d]", res.IO(), lower, upper)
	}
}

// The symmetric-size analytic ordering (Theorem 5.2) and the measured
// non-symmetric schedules must agree on direction: more fusion, less I/O.
func TestFusionMonotonicity(t *testing.T) {
	n := 3
	f := cdag.BuildFourIndex(n)
	s := n*n*n*n + 3*n*n*n + 4*n*n + 2*n + 8
	ioUnfused := mustIO(t, f, s, OrderFourIndexUnfused(f))
	ioPair := mustIO(t, f, s, OrderFourIndexFusedPair(f))
	ioFull := mustIO(t, f, s, OrderFourIndexFullyFused(f))
	if !(ioFull <= ioPair && ioPair <= ioUnfused) {
		t.Errorf("I/O not monotone in fusion: full=%d pair=%d unfused=%d", ioFull, ioPair, ioUnfused)
	}
}

func mustIO(t *testing.T, f *cdag.FourIndex, s int, order []cdag.VID) int {
	t.Helper()
	res, err := Simulate(f.G, s, order)
	if err != nil {
		t.Fatal(err)
	}
	return res.IO()
}
