package fourindex

import (
	"errors"
	"math"
	"slices"
	"testing"

	"fourindex/internal/chem"
	"fourindex/internal/ga"
	"fourindex/internal/lb"
	"fourindex/internal/sym"
)

var allSchemes = []Scheme{Unfused, Fused1234Pair, Recompute, FullyFused, FullyFusedInner, Fused123}

func TestSchemeNames(t *testing.T) {
	for _, s := range append(allSchemes, Hybrid) {
		name := s.String()
		got, err := SchemeByName(name)
		if err != nil || got != s {
			t.Errorf("SchemeByName(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := SchemeByName("nope"); err == nil {
		t.Error("unknown scheme should error")
	}
	if Scheme(99).String() != "Scheme(99)" {
		t.Error("unknown scheme String() wrong")
	}
}

// Every scheme must produce bitwise-close results to the packed
// sequential reference across tilings, process counts, spatial symmetry
// and fused tile widths.
func TestAllSchemesMatchReference(t *testing.T) {
	cases := []struct {
		name               string
		n, s, procs, tileN int
		tileL              int
	}{
		{"single-tile", 6, 1, 1, 6, 6},
		{"even", 8, 1, 2, 4, 4},
		{"ragged", 10, 1, 3, 4, 3},
		{"spatial", 8, 2, 2, 3, 2},
		{"tiny-tiles", 7, 1, 4, 2, 2},
		{"tileL-1", 6, 1, 2, 3, 1},
	}
	for _, tc := range cases {
		sp := chem.MustSpec(tc.n, tc.s, 99)
		want := ReferencePacked(sp)
		for _, scheme := range allSchemes {
			res, err := Run(scheme, Options{
				Spec:  sp,
				Procs: tc.procs,
				Mode:  ga.Execute,
				TileN: tc.tileN,
				TileL: tc.tileL,
			})
			if err != nil {
				t.Errorf("%s/%v: %v", tc.name, scheme, err)
				continue
			}
			if d := sym.MaxAbsDiffC(res.C, want); d > 1e-9 {
				t.Errorf("%s/%v: max diff vs reference = %v", tc.name, scheme, d)
			}
		}
	}
}

func TestAllSchemesAgainstNaive(t *testing.T) {
	sp := chem.MustSpec(5, 1, 3)
	want := ReferenceNaive(sp)
	for _, scheme := range allSchemes {
		res, err := Run(scheme, Options{Spec: sp, Procs: 2, Mode: ga.Execute, TileN: 2, TileL: 2})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if d := sym.MaxAbsDiffC(res.C, want); d > 1e-10 {
			t.Errorf("%v vs naive: max diff %v", scheme, d)
		}
	}
}

func TestAlphaParallelisationCorrect(t *testing.T) {
	sp := chem.MustSpec(9, 1, 5)
	want := ReferencePacked(sp)
	for _, apar := range []int{1, 2, 3} {
		res, err := Run(FullyFusedInner, Options{
			Spec: sp, Procs: 3, Mode: ga.Execute, TileN: 3, TileL: 3, AlphaPar: apar,
		})
		if err != nil {
			t.Fatalf("alphaPar=%d: %v", apar, err)
		}
		if d := sym.MaxAbsDiffC(res.C, want); d > 1e-9 {
			t.Errorf("alphaPar=%d: max diff %v", apar, d)
		}
	}
}

// Section 7.3: parallelising alpha multiplies A's communication.
func TestAlphaParallelisationIncreasesATraffic(t *testing.T) {
	sp := chem.MustSpec(16, 1, 5)
	run := func(apar int) int64 {
		res, err := Run(FullyFusedInner, Options{
			Spec: sp, Procs: 4, Mode: ga.Cost, TileN: 4, TileL: 4, AlphaPar: apar,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.CommVolume + res.IntraVolume
	}
	v1, v2 := run(1), run(2)
	if v2 <= v1 {
		t.Errorf("alphaPar=2 volume %d should exceed alphaPar=1 volume %d", v2, v1)
	}
}

// Cost mode must account exactly the same flops and data movement as
// Execute mode (same control flow, no arithmetic).
func TestCostModeMatchesExecuteAccounting(t *testing.T) {
	sp := chem.MustSpec(8, 1, 13)
	for _, scheme := range allSchemes {
		opts := Options{Spec: sp, Procs: 2, Mode: ga.Execute, TileN: 3, TileL: 2}
		ex, err := Run(scheme, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Mode = ga.Cost
		co, err := Run(scheme, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Totals.Flops != co.Totals.Flops {
			t.Errorf("%v: flops execute %d != cost %d", scheme, ex.Totals.Flops, co.Totals.Flops)
		}
		exVol := ex.CommVolume + ex.IntraVolume
		coVol := co.CommVolume + co.IntraVolume
		if exVol != coVol {
			t.Errorf("%v: volume execute %d != cost %d", scheme, exVol, coVol)
		}
		if ex.PeakGlobalBytes != co.PeakGlobalBytes {
			t.Errorf("%v: peak execute %d != cost %d", scheme, ex.PeakGlobalBytes, co.PeakGlobalBytes)
		}
		if co.C != nil {
			t.Errorf("%v: cost mode must not return C", scheme)
		}
	}
}

// TestCostModeBuildsNoB pins that only an Execute run builds the N x N
// coefficient matrix: pricing a molecule-scale job in Cost mode must not
// pay N^2 words for a B it never reads. An Execute run's B is the spec's
// BMatrix, WithB's override included.
func TestCostModeBuildsNoB(t *testing.T) {
	opt, err := Options{Spec: chem.MustSpec(368, 1, 7), Procs: 4, Mode: ga.Cost}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	c, err := newRunCtx(opt)
	if err != nil {
		t.Fatal(err)
	}
	if c.b != nil {
		t.Errorf("a Cost-mode run context holds a %d-word B", len(c.b))
	}

	sp := chem.MustSpec(8, 1, 7)
	ov := make([]float64, 64)
	for i := range ov {
		ov[i] = float64(i)
	}
	spOv, err := sp.WithB(ov)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range []chem.Spec{sp, spOv} {
		opt, err := Options{Spec: sp, Procs: 2, Mode: ga.Execute}.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		c, err := newRunCtx(opt)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(c.b, sp.BMatrix()) {
			t.Errorf("an Execute run context's B differs from BMatrix")
		}
	}
}

// Memory ordering (Table 1 / Section 2.2): recompute < fused-inner <
// fused12-34 < unfused, and unfused ~ 3n^4/4 words.
func TestPeakMemoryOrdering(t *testing.T) {
	// TileL is kept small relative to n: the fused schedules' slabs
	// scale with n^3*Tl and only undercut the n^4-scale alternatives
	// when Tl << n (at molecule scale Tl/n is tiny).
	sp := chem.MustSpec(24, 1, 1)
	peak := map[Scheme]int64{}
	for _, scheme := range allSchemes {
		res, err := Run(scheme, Options{Spec: sp, Procs: 2, Mode: ga.Cost, TileN: 4, TileL: 2})
		if err != nil {
			t.Fatal(err)
		}
		peak[scheme] = res.PeakGlobalBytes
	}
	if !(peak[Recompute] < peak[FullyFusedInner] &&
		peak[FullyFusedInner] <= peak[FullyFused] &&
		peak[FullyFused] < peak[Fused1234Pair] &&
		peak[Fused1234Pair] < peak[Unfused]) {
		t.Errorf("peak memory ordering violated: %v", peak)
	}
	n4 := math.Pow(24, 4)
	got := float64(peak[Unfused]) / 8
	if got < 0.75*n4 || got > 1.0*n4 {
		t.Errorf("unfused peak = %v words, want ~3n^4/4 = %v", got, 0.75*n4)
	}
	fp := float64(peak[Fused1234Pair]) / 8
	if fp < 0.5*n4 || fp > 0.72*n4 {
		t.Errorf("fused12-34 peak = %v words, want ~n^4/2 = %v", fp, 0.5*n4)
	}
}

// Section 7.4: the fused schedule performs ~1.5x the unfused arithmetic
// (symmetry breaking in the first two contractions).
func TestFusedFlopOverhead(t *testing.T) {
	sp := chem.MustSpec(32, 1, 1)
	flops := func(s Scheme) int64 {
		res, err := Run(s, Options{Spec: sp, Procs: 2, Mode: ga.Cost, TileN: 8, TileL: 4})
		if err != nil {
			t.Fatal(err)
		}
		// Exclude integral generation: count contraction arithmetic
		// only, approximated by subtracting nothing — compare totals
		// of schemes that both generate A once... FullyFused
		// regenerates integrals per slab, so compare against the lb
		// formula instead.
		return res.Totals.Flops
	}
	got := float64(flops(FullyFused))
	// Contraction flops only (lb formulas) plus integral regeneration.
	n := 32
	wantContract := float64(lb.FlopsFused1234(n))
	nl := float64(n) / 4 // slabs
	wantIntegrals := nl * math.Pow(float64(n), 3) * 4 / 2 * integralFlops
	want := wantContract + wantIntegrals
	if math.Abs(got-want)/want > 0.35 {
		t.Errorf("fullyfused flops = %v, want ~%v (contractions %v + integrals %v)",
			got, want, wantContract, wantIntegrals)
	}
	ratioVsUnfused := got / float64(flops(Unfused))
	if ratioVsUnfused < 1.1 {
		t.Errorf("fused/unfused flop ratio = %v, want > 1.1 (paper: ~1.5x contraction work)", ratioVsUnfused)
	}
}

// The inner op12/34 fusion eliminates O1 and O3 global traffic: the
// Listing 10 schedule must move significantly less data than Listing 8.
func TestInnerFusionReducesCommunication(t *testing.T) {
	sp := chem.MustSpec(24, 1, 1)
	vol := func(s Scheme) int64 {
		res, err := Run(s, Options{Spec: sp, Procs: 4, Mode: ga.Cost, TileN: 6, TileL: 6})
		if err != nil {
			t.Fatal(err)
		}
		return res.CommVolume + res.IntraVolume
	}
	plain, inner := vol(FullyFused), vol(FullyFusedInner)
	if inner >= plain {
		t.Fatalf("inner fusion volume %d should beat plain %d", inner, plain)
	}
	// The eliminated traffic is O1's and O3's round trips through
	// global memory: 2(|O1l| + |O3l|) per slab ~ 3 n^3 Tl per slab.
	saved := plain - inner
	n, tl := 24.0, 6.0
	wantSaved := (n / tl) * 3 * math.Pow(n, 3) * tl // = 3n^4
	if float64(saved) < 0.6*wantSaved {
		t.Errorf("saved %d, want on the order of %v", saved, wantSaved)
	}
}

// The measured communication volume of the paper's schedule tracks the
// lb.CommVolumeFused analytic formula.
func TestFusedCommMatchesAnalyticFormula(t *testing.T) {
	sp := chem.MustSpec(24, 1, 1)
	res, err := Run(FullyFusedInner, Options{Spec: sp, Procs: 4, Mode: ga.Cost, TileN: 6, TileL: 6})
	if err != nil {
		t.Fatal(err)
	}
	got := float64(res.CommVolume + res.IntraVolume)
	want := float64(lb.CommVolumeFused(24, 1, 6, 1))
	// Block-triangular storage, A's double reads and ragged tiles cost
	// a constant factor; the formula must be right to within ~2x.
	if got < 0.7*want || got > 2.5*want {
		t.Errorf("measured volume %v vs analytic %v (ratio %v)", got, want, got/want)
	}
}

// Reproducing the paper's headline behaviour in miniature: a problem
// whose unfused intermediates exceed the memory cap still runs fused.
func TestFusedRunsWhereUnfusedOOMs(t *testing.T) {
	sp := chem.MustSpec(20, 1, 7)
	cap := int64(float64(lb.MemoryUnfused(20, 1)*8) * 0.75)
	if _, err := Run(Unfused, Options{
		Spec: sp, Procs: 2, Mode: ga.Execute, TileN: 5, GlobalMemBytes: cap,
	}); !errors.Is(err, ga.ErrGlobalOOM) {
		t.Fatalf("unfused should OOM under cap, got %v", err)
	}
	res, err := Run(FullyFusedInner, Options{
		Spec: sp, Procs: 2, Mode: ga.Execute, TileN: 5, TileL: 2, GlobalMemBytes: cap,
	})
	if err != nil {
		t.Fatalf("fused should fit under cap: %v", err)
	}
	if d := sym.MaxAbsDiffC(res.C, ReferencePacked(sp)); d > 1e-9 {
		t.Errorf("fused-under-cap result wrong: %v", d)
	}
}

func TestHybridPicksUnfusedWhenFits(t *testing.T) {
	sp := chem.MustSpec(10, 1, 1)
	res, err := Run(Hybrid, Options{Spec: sp, Procs: 2, Mode: ga.Execute, TileN: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.ChosenScheme != Unfused || res.Scheme != Hybrid {
		t.Errorf("hybrid chose %v", res.ChosenScheme)
	}
	if d := sym.MaxAbsDiffC(res.C, ReferencePacked(sp)); d > 1e-9 {
		t.Errorf("hybrid result wrong: %v", d)
	}
}

func TestHybridPicksFusedUnderPressure(t *testing.T) {
	sp := chem.MustSpec(20, 1, 7)
	cap := int64(float64(lb.MemoryUnfused(20, 1)*8) * 0.75)
	res, err := Run(Hybrid, Options{
		Spec: sp, Procs: 2, Mode: ga.Execute, TileN: 5, GlobalMemBytes: cap,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ChosenScheme != FullyFusedInner {
		t.Errorf("hybrid chose %v, want fused under memory pressure", res.ChosenScheme)
	}
	if d := sym.MaxAbsDiffC(res.C, ReferencePacked(sp)); d > 1e-9 {
		t.Errorf("hybrid fused result wrong: %v", d)
	}
}

func TestHybridInfeasible(t *testing.T) {
	sp := chem.MustSpec(20, 1, 7)
	if _, err := Run(Hybrid, Options{
		Spec: sp, Procs: 1, Mode: ga.Cost, TileN: 5, GlobalMemBytes: 10_000,
	}); err == nil {
		t.Error("hybrid with absurdly small memory should fail")
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Run(Unfused, Options{}); err == nil {
		t.Error("zero spec should error")
	}
	if _, err := Run(Scheme(42), Options{Spec: chem.MustSpec(4, 1, 0), Mode: ga.Execute}); err == nil {
		t.Error("unknown scheme should error")
	}
	// Defaults: zero procs -> 1, oversize tiles clamp.
	res, err := Run(Unfused, Options{Spec: chem.MustSpec(5, 1, 0), Mode: ga.Execute, TileN: 100})
	if err != nil {
		t.Fatal(err)
	}
	if d := sym.MaxAbsDiffC(res.C, ReferencePacked(chem.MustSpec(5, 1, 0))); d > 1e-10 {
		t.Errorf("defaulted run wrong: %v", d)
	}
}

// Determinism: two runs with identical options give identical counters
// and identical results.
func TestDeterminism(t *testing.T) {
	sp := chem.MustSpec(8, 1, 21)
	opts := Options{Spec: sp, Procs: 3, Mode: ga.Execute, TileN: 3, TileL: 2}
	r1, err := Run(FullyFusedInner, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(FullyFusedInner, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sym.MaxAbsDiffC(r1.C, r2.C) != 0 {
		t.Error("results differ between identical runs")
	}
	if r1.Totals.Flops != r2.Totals.Flops || r1.CommVolume != r2.CommVolume {
		t.Error("accounting differs between identical runs")
	}
}

// Simulated time must be populated when a machine model is supplied, and
// more processes must not be slower for a compute-dominated problem.
func TestSimulatedTimeScales(t *testing.T) {
	sp := chem.MustSpec(32, 1, 1)
	elapsed := func(procs int) float64 {
		run := mustRun(t, procs)
		res, err := Run(Unfused, Options{
			Spec: sp, Procs: procs, Mode: ga.Cost, TileN: 4, Run: &run,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.ElapsedSeconds <= 0 {
			t.Fatal("no simulated time")
		}
		return res.ElapsedSeconds
	}
	t1, t8 := elapsed(1), elapsed(8)
	if t8 >= t1 {
		t.Errorf("8 procs (%v s) should beat 1 proc (%v s)", t8, t1)
	}
}
