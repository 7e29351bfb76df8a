package fourindex

import (
	"fmt"
	"testing"

	"fourindex/internal/chem"
	"fourindex/internal/cluster"
	"fourindex/internal/ga"
	"fourindex/internal/sym"
)

// Nested l tiling (Section 7.3's alternative) must preserve results for
// any batch width, including ragged final batches.
func TestLParCorrect(t *testing.T) {
	sp := chem.MustSpec(10, 1, 17)
	want := ReferencePacked(sp)
	for _, lp := range []int{1, 2, 3, 5, 99} {
		res, err := Run(FullyFusedInner, Options{
			Spec: sp, Procs: 3, Mode: ga.Execute, TileN: 4, TileL: 2, LPar: lp,
		})
		if err != nil {
			t.Fatalf("LPar=%d: %v", lp, err)
		}
		if d := sym.MaxAbsDiffC(res.C, want); d > 1e-9 {
			t.Errorf("LPar=%d: max diff %v", lp, d)
		}
	}
}

// LPar multiplies slab memory: the peak footprint grows with the batch.
func TestLParGrowsMemory(t *testing.T) {
	sp := chem.MustSpec(24, 1, 3)
	peak := func(lp int) int64 {
		res, err := Run(FullyFusedInner, Options{
			Spec: sp, Procs: 2, Mode: ga.Cost, TileN: 6, TileL: 3, LPar: lp,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.PeakGlobalBytes
	}
	p1, p2, p3 := peak(1), peak(2), peak(3)
	if p2 <= p1 || p3 <= p2 {
		t.Errorf("peaks must grow with LPar: %d, %d, %d", p1, p2, p3)
	}
	// Each extra slab in flight adds one slab set: the increments match.
	d12, d23 := float64(p2-p1), float64(p3-p2)
	if d23 < 0.8*d12 || d23 > 1.2*d12 {
		t.Errorf("slab increments inconsistent: %v vs %v", d12, d23)
	}
}

// With more processes than single-slab work units, processing l slabs
// concurrently shortens the simulated time.
func TestLParIncreasesParallelism(t *testing.T) {
	run, err := cluster.SystemB().Configure(224, 28)
	if err != nil {
		t.Fatal(err)
	}
	sp := chem.MustSpec(48, 1, 3)
	elapsed := func(lp int) float64 {
		res, err := Run(FullyFusedInner, Options{
			Spec: sp, Procs: 224, Mode: ga.Cost, Run: &run,
			TileN: 8, TileL: 4, LPar: lp,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.ElapsedSeconds
	}
	t1, t4 := elapsed(1), elapsed(4)
	if t4 >= t1 {
		t.Errorf("LPar=4 (%v s) should beat LPar=1 (%v s) at 224 procs", t4, t1)
	}
}

// Accounting must not depend on the batch width (same work, same data).
func TestLParAccountingInvariant(t *testing.T) {
	sp := chem.MustSpec(16, 1, 3)
	get := func(lp int) (int64, int64) {
		res, err := Run(FullyFusedInner, Options{
			Spec: sp, Procs: 2, Mode: ga.Cost, TileN: 4, TileL: 2, LPar: lp,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Totals.Flops, res.CommVolume + res.IntraVolume
	}
	f1, v1 := get(1)
	f2, v2 := get(4)
	if f1 != f2 || v1 != v2 {
		t.Errorf("accounting differs with LPar: flops %d vs %d, volume %d vs %d", f1, f2, v1, v2)
	}
}

// Nested l tiling must not make C depend on goroutine scheduling: each
// C tile's slab contributions are accumulated by one process in slab
// order, so any batch width gives the LPar=1 tensor bit for bit, with
// the nonblocking path off and on.
func TestLParBitwiseReproducible(t *testing.T) {
	sp := chem.MustSpec(10, 1, 17)
	for _, overlap := range []bool{false, true} {
		base := Options{Spec: sp, Procs: 3, Mode: ga.Execute, TileN: 4, TileL: 3, Overlap: overlap}
		want, err := Run(FullyFusedInner, base)
		if err != nil {
			t.Fatalf("LPar=1 overlap=%v: %v", overlap, err)
		}
		for _, lp := range []int{2, 3} {
			o := base
			o.LPar = lp
			res, err := Run(FullyFusedInner, o)
			if err != nil {
				t.Fatalf("LPar=%d overlap=%v: %v", lp, overlap, err)
			}
			bitwiseEqual(t, fmt.Sprintf("LPar=%d overlap=%v", lp, overlap), res.C.Data(), want.C.Data())
		}
	}
}
