package lb

import (
	"math"
	"strings"
	"testing"

	"fourindex/internal/lb/chain"
	"fourindex/internal/sym"
)

func TestMatmulBoundsOrdering(t *testing.T) {
	// Dongarra's bound is tighter (larger) than Irony's for the same
	// problem, and both must be positive.
	ni, nj, nk, s := int64(100), int64(100), int64(100), int64(1024)
	irony := chain.Irony(ni, nj, nk, s)
	dongarra := chain.Dongarra(ni, nj, nk, s)
	if irony <= 0 || dongarra <= 0 {
		t.Fatal("bounds must be positive")
	}
	if dongarra <= irony {
		t.Errorf("Dongarra %v should exceed Irony %v", dongarra, irony)
	}
	hk := chain.HongKung(100, s)
	if hk <= 0 {
		t.Error("Hong-Kung bound must be positive")
	}
}

func TestBoundsScaleWithS(t *testing.T) {
	// More fast memory => weaker (smaller) lower bound, ~1/sqrt(S).
	b1 := chain.Dongarra(64, 64, 64, 256)
	b2 := chain.Dongarra(64, 64, 64, 1024)
	if ratio := b1 / b2; math.Abs(ratio-2) > 1e-9 {
		t.Errorf("4x memory should halve the bound; ratio = %v", ratio)
	}
}

func TestBadSPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("S = 0 did not panic")
		}
	}()
	ContractionLB(4, 0, 1, 1)
}

func TestFusionLemmaArithmetic(t *testing.T) {
	if got := chain.FusionLemma(100, 200, 40); got != 220 {
		t.Errorf("FusionLemma = %v, want 100+200-80 = 220", got)
	}
}

// Section 4's square example: two chained N x N matmuls, fusion saving
// is bounded by ~27% of the unfused I/O (0.54/2).
func TestFusionFutileForSquareChain(t *testing.T) {
	// The paper's arithmetic: efficiently tiled unfused execution
	// costs 2 * 2N^3/sqrt(S); the Fusion Lemma floor is
	// 2 * 1.73 N^3/sqrt(S) - 2N^2, so the saving is under
	// 0.54 N^3/sqrt(S) + 2N^2 — around 27% of one matmul's I/O.
	n, s := int64(4096), int64(64*64)
	lbOne := chain.Dongarra(n, n, n, s)
	fusedLB := chain.FusionLemma(lbOne, lbOne, n*n)
	// A T-tiled classical matmul moves ~2N^3/T elements (Section 2.3).
	perMatmul := 2 * float64(n*n*n) / math.Sqrt(float64(s))
	unfused := 2 * perMatmul
	saving := max(unfused-fusedLB, 0)
	if frac := saving / perMatmul; frac > 0.30 {
		t.Errorf("square-chain fusion saving fraction = %v, paper bounds it near 27%%", frac)
	}
}

// Section 4's non-square example: with N >> K the intermediate (N x N)
// dwarfs the inherent I/O, so fusion can be very beneficial.
func TestFusionBeneficialForOuterProductChain(t *testing.T) {
	n, k, s := int64(10000), int64(16), int64(4096)
	lbOne := chain.Dongarra(n, k, n, s)
	inter := n * n
	fusedLB := chain.FusionLemma(lbOne, lbOne, inter)
	// The unfused schedule must at least write and read the
	// intermediate: 2|O1| plus the inherent terms.
	unfusedMin := 2*lbOne + 2*float64(inter)
	saving := max(unfusedMin-fusedLB, 0)
	if frac := saving / unfusedMin; frac < 0.5 {
		t.Errorf("tall-skinny fusion saving fraction = %v, want > 0.5", frac)
	}
}

func TestContractionLB(t *testing.T) {
	n := int64(64)
	sz := sym.PaperSizes(int(n), 1)
	// Large S: bound is |in| + |out|.
	bigS := int64(10 * n * n)
	got := ContractionLB(n, bigS, sz.A, sz.O1)
	if got != float64(sz.A+sz.O1) {
		t.Errorf("large-S bound = %v, want %v", got, sz.A+sz.O1)
	}
	// Tiny S: Dongarra term dominates.
	tinyS := int64(16)
	got = ContractionLB(n, tinyS, sz.A, sz.O1)
	want := chain.Dongarra(n*n*n, n, n, tinyS)
	if got != want {
		t.Errorf("small-S bound = %v, want Dongarra %v", got, want)
	}
}

func TestThresholds(t *testing.T) {
	n := int64(100)
	if SingleTightThreshold(n) != 10101 {
		t.Errorf("single threshold = %d", SingleTightThreshold(n))
	}
	if PairFusionThreshold(n) != 30101 {
		t.Errorf("pair threshold = %d", PairFusionThreshold(n))
	}
	if PairFusionUseful(n, 2*n*n) {
		t.Error("S = 2n^2 < 3n^2 should make pair fusion futile")
	}
	if !PairFusionUseful(n, 4*n*n) {
		t.Error("S = 4n^2 should allow useful fusion")
	}
}

func TestFullReuseCondition(t *testing.T) {
	sizeC := int64(1000)
	if FullReusePossible(999, sizeC) {
		t.Error("S < |C| must forbid full reuse (Theorem 6.2)")
	}
	if !FullReusePossible(1000, sizeC) {
		t.Error("S = |C| permits full reuse")
	}
	n := int64(10)
	if got := FullReuseSufficientS(n, sizeC); got != 1000+2000 {
		t.Errorf("sufficient S = %d, want |C| + 2n^3", got)
	}
}

func TestAllFusionConfigsComplete(t *testing.T) {
	cfgs := AllFusionConfigs()
	if len(cfgs) != 8 {
		t.Fatalf("got %d configs, want 8", len(cfgs))
	}
	names := make(map[string]bool)
	for _, c := range cfgs {
		names[c.String()] = true
		// Groups must cover 1..4 contiguously.
		next := 1
		for _, g := range c.Groups {
			for _, op := range g {
				if op != next {
					t.Errorf("%v is not a contiguous partition", c)
				}
				next++
			}
		}
		if next != 5 {
			t.Errorf("%v does not cover all four contractions", c)
		}
	}
	for _, want := range []string{"op1/2/3/4", "op12/34", "op123/4", "op1/234", "op1234", "op12/3/4", "op1/23/4", "op1/2/34"} {
		if !names[want] {
			t.Errorf("missing config %s (have %v)", want, names)
		}
	}
}

func TestConfigByName(t *testing.T) {
	c, err := ConfigByName("op12/34")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Groups) != 2 || len(c.Groups[0]) != 2 {
		t.Errorf("op12/34 parsed as %v", c)
	}
	if _, err := ConfigByName("op21/43"); err == nil {
		t.Error("bogus name should error")
	}
}

// Section 5.3's explicit bound expressions.
func TestConfigIOMatchesPaperExpressions(t *testing.T) {
	sz := sym.ExactSizes(40, 1)
	cases := map[string]int64{
		"op1/2/3/4": sz.A + sz.O1 + sz.O1 + sz.O2 + sz.O2 + sz.O3 + sz.O3 + sz.C,
		"op12/34":   sz.A + sz.O2 + sz.O2 + sz.C,
		"op1/23/4":  sz.A + sz.O1 + sz.O1 + sz.O3 + sz.O3 + sz.C,
		"op123/4":   sz.A + sz.O3 + sz.O3 + sz.C,
		"op1234":    sz.A + sz.C,
	}
	for name, want := range cases {
		c, err := ConfigByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := ConfigIO(c, sz); got != want {
			t.Errorf("%s I/O = %d, want %d", name, got, want)
		}
	}
}

// Theorem 5.2: IO(op1234) <= IO(op12/34) < IO(op123/4), the strict
// inequality coming from |O3| > |O2| under symmetry.
func TestTheorem52Order(t *testing.T) {
	for _, n := range []int{10, 50, 200} {
		for _, s := range []int{1, 4, 8} {
			sz := sym.ExactSizes(n, s)
			io1234 := ConfigIO(mustCfg(t, "op1234"), sz)
			io1234p := ConfigIO(mustCfg(t, "op12/34"), sz)
			io123 := ConfigIO(mustCfg(t, "op123/4"), sz)
			if !(io1234 <= io1234p) {
				t.Errorf("n=%d s=%d: IO(op1234)=%d > IO(op12/34)=%d", n, s, io1234, io1234p)
			}
			if !(io1234p < io123) {
				t.Errorf("n=%d s=%d: IO(op12/34)=%d !< IO(op123/4)=%d", n, s, io1234p, io123)
			}
		}
	}
}

func mustCfg(t *testing.T, name string) FusionConfig {
	t.Helper()
	c, err := ConfigByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRankConfigsBestIsFullFusion(t *testing.T) {
	ranked := RankConfigs(sym.ExactSizes(64, 1))
	if ranked[0].Config.String() != "op1234" {
		t.Errorf("best config = %s, want op1234", ranked[0].Config)
	}
	if !ranked[0].Tight {
		t.Error("op1234 bound should be marked tight (Listing 7)")
	}
	// op12/34 must outrank every other partial fusion.
	pos := map[string]int{}
	for i, r := range ranked {
		pos[r.Config.String()] = i
	}
	for _, other := range []string{"op1/2/3/4", "op123/4", "op1/234", "op12/3/4", "op1/23/4", "op1/2/34"} {
		if pos["op12/34"] > pos[other] {
			t.Errorf("op12/34 ranked below %s", other)
		}
	}
}

func TestConfigTight(t *testing.T) {
	if !ConfigTight(mustCfg(t, "op12/34")) || !ConfigTight(mustCfg(t, "op1234")) || !ConfigTight(mustCfg(t, "op1/2/3/4")) {
		t.Error("pairs, singletons and full fusion are tight")
	}
	if ConfigTight(mustCfg(t, "op123/4")) || ConfigTight(mustCfg(t, "op1/234")) {
		t.Error("triple fusion bounds are not known tight")
	}
}

func TestBestConfigBySCapacity(t *testing.T) {
	sz := sym.ExactSizes(64, 1)
	if got := BestConfig(sz, sz.C); got.String() != "op1234" {
		t.Errorf("S = |C| should pick op1234, got %s", got)
	}
	if got := BestConfig(sz, sz.C-1); got.String() != "op12/34" {
		t.Errorf("S < |C| should pick op12/34, got %s", got)
	}
}

func TestConfigStringFormat(t *testing.T) {
	c := FusionConfig{Groups: [][]int{{1, 2}, {3}, {4}}}
	if c.String() != "op12/3/4" {
		t.Errorf("String = %q", c.String())
	}
	if !strings.HasPrefix(c.String(), "op") {
		t.Error("notation must start with op")
	}
}
