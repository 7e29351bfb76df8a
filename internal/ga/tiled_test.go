package ga

import (
	"errors"
	"reflect"
	"testing"

	"fourindex/internal/sym"
	"fourindex/internal/tile"
)

func grids(n, t, dims int) []tile.Grid {
	g := tile.NewGrid(n, t)
	out := make([]tile.Grid, dims)
	for i := range out {
		out[i] = g
	}
	return out
}

func TestCreateTiledPlain(t *testing.T) {
	rt := newExec(t, 2)
	a, err := rt.CreateTiled("T", grids(6, 2, 2), nil, tile.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumTiles() != 9 {
		t.Errorf("NumTiles = %d, want 9", a.NumTiles())
	}
	if a.Bytes() != 6*6*8 {
		t.Errorf("Bytes = %d, want full 6x6 matrix", a.Bytes())
	}
	rt.DestroyTiled(a)
}

func TestCreateTiledSymmetricStorage(t *testing.T) {
	rt := newExec(t, 2)
	// 4D tensor with both pairs symmetric at 3x3 tile blocks of width 2.
	a, err := rt.CreateTiled("A", grids(6, 2, 4), [][2]int{{0, 1}, {2, 3}}, tile.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	// Canonical blocks per pair: Pairs(3) = 6; each block 2*2 = 4
	// elements per pair dim -> total = (6*4)^2 = 576 words.
	if a.NumTiles() != 36 {
		t.Errorf("NumTiles = %d, want 36", a.NumTiles())
	}
	if a.Bytes() != 576*8 {
		t.Errorf("Bytes = %d, want %d", a.Bytes(), 576*8)
	}
	// Block-symmetric storage is bounded by full size and close to the
	// packed Table 1 count for fine tilings.
	full := int64(6 * 6 * 6 * 6 * 8)
	if a.Bytes() >= full {
		t.Error("symmetric storage should be far below full")
	}
	packed := sym.ExactSizes(6, 1).A * 8
	if a.Bytes() < packed {
		t.Error("block storage cannot be below exact packed size")
	}
	rt.DestroyTiled(a)
}

func TestCreateTiledValidation(t *testing.T) {
	rt := newExec(t, 1)
	if _, err := rt.CreateTiled("x", nil, nil, tile.RoundRobin); err == nil {
		t.Error("no dims should error")
	}
	if _, err := rt.CreateTiled("x", grids(4, 2, 2), [][2]int{{0, 2}}, tile.RoundRobin); err == nil {
		t.Error("non-adjacent pair should error")
	}
	gs := []tile.Grid{tile.NewGrid(4, 2), tile.NewGrid(4, 3)}
	if _, err := rt.CreateTiled("x", gs, [][2]int{{0, 1}}, tile.RoundRobin); err == nil {
		t.Error("mismatched pair grids should error")
	}
}

func TestTiledPutGetRoundTrip(t *testing.T) {
	rt := newExec(t, 3)
	a, _ := rt.CreateTiled("T", grids(5, 2, 3), nil, tile.RoundRobin)
	err := rt.Parallel(func(p *Proc) {
		if p.ID() != 0 {
			return
		}
		shape := a.TileShape([]int{1, 1, 2})
		if shape[0] != 2 || shape[1] != 2 || shape[2] != 1 { // ragged last dim
			t.Errorf("shape = %v", shape)
		}
		w := a.TileWords([]int{1, 1, 2})
		buf := make([]float64, w)
		for i := range buf {
			buf[i] = float64(i) + 1
		}
		p.PutT(a, buf, 1, 1, 2)
		got := make([]float64, w)
		if n := p.GetT(a, got, 1, 1, 2); n != w {
			t.Errorf("GetT returned %d words, want %d", n, w)
		}
		for i := range got {
			if got[i] != buf[i] {
				t.Errorf("got[%d] = %v", i, got[i])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTiledGetUnwrittenIsZero(t *testing.T) {
	rt := newExec(t, 1)
	a, _ := rt.CreateTiled("T", grids(4, 2, 2), nil, tile.RoundRobin)
	_ = rt.Parallel(func(p *Proc) {
		buf := []float64{9, 9, 9, 9}
		p.GetT(a, buf, 0, 0)
		for _, v := range buf {
			if v != 0 {
				t.Error("unwritten tile should read as zeros")
			}
		}
	})
}

func TestTiledAccAccumulates(t *testing.T) {
	rt := newExec(t, 4)
	a, _ := rt.CreateTiled("C", grids(4, 2, 2), nil, tile.RoundRobin)
	err := rt.Parallel(func(p *Proc) {
		buf := []float64{1, 1, 1, 1}
		p.AccT(a, 2, buf, 1, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = rt.Parallel(func(p *Proc) {
		if p.ID() != 0 {
			return
		}
		got := make([]float64, 4)
		p.GetT(a, got, 1, 0)
		for _, v := range got {
			if v != 8 { // 4 procs x alpha 2
				t.Errorf("acc value = %v, want 8", v)
			}
		}
	})
}

func TestTiledNonCanonicalPanics(t *testing.T) {
	rt := newExec(t, 1)
	a, _ := rt.CreateTiled("A", grids(4, 2, 2), [][2]int{{0, 1}}, tile.RoundRobin)
	err := rt.Parallel(func(p *Proc) {
		p.GetT(a, make([]float64, 4), 0, 1) // t0 < t1: non-canonical
	})
	if err == nil {
		t.Error("non-canonical symmetric tile access should fail")
	}
}

func TestTiledRemoteAccounting(t *testing.T) {
	rt := newExec(t, 2)
	a, _ := rt.CreateTiled("T", grids(4, 2, 2), nil, tile.RoundRobin)
	// 4 tiles round-robin: tile (0,0) id 0 -> proc 0, (0,1) id 1 -> proc 1.
	err := rt.Parallel(func(p *Proc) {
		if p.ID() != 0 {
			return
		}
		buf := make([]float64, 4)
		p.PutT(a, buf, 0, 0) // local
		p.PutT(a, buf, 0, 1) // remote
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.CommVolume() != 4 || rt.IntraVolume() != 4 {
		t.Errorf("comm=%d intra=%d, want 4/4", rt.CommVolume(), rt.IntraVolume())
	}
}

func TestTiledGlobalOOM(t *testing.T) {
	rt, _ := NewRuntime(Config{Procs: 1, Mode: Cost, GlobalMemBytes: 100})
	if _, err := rt.CreateTiled("big", grids(100, 10, 2), nil, tile.RoundRobin); !errors.Is(err, ErrGlobalOOM) {
		t.Errorf("want ErrGlobalOOM, got %v", err)
	}
}

func TestTiledCostModeHugeTensor(t *testing.T) {
	rt, _ := NewRuntime(Config{Procs: 4, Mode: Cost})
	// n = 1194 (Shell-Mixed) with 40-wide tiles: must be fast and
	// allocation-free.
	a, err := rt.CreateTiled("A", grids(1194, 40, 4), [][2]int{{0, 1}, {2, 3}}, tile.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	n4 := int64(1194) * 1194 * 1194 * 1194
	// Block-symmetric ~ n^4/4 within ~10%.
	ratio := float64(a.Bytes()) / (float64(n4) / 4 * 8)
	if ratio < 1.0 || ratio > 1.10 {
		t.Errorf("block-symmetric overhead ratio = %v", ratio)
	}
	err = rt.Parallel(func(p *Proc) {
		if p.ID() == 0 {
			w := p.GetT(a, nil, 5, 3, 7, 2)
			if w != 40*40*40*40 {
				t.Errorf("tile words = %d", w)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.DestroyTiled(a)
}

func TestTiledStrict(t *testing.T) {
	rt, _ := NewRuntime(Config{Procs: 1, Mode: Execute, Strict: true})
	a, _ := rt.CreateTiled("T", grids(4, 2, 2), nil, tile.RoundRobin)
	if err := rt.Parallel(func(p *Proc) {
		p.GetT(a, make([]float64, 4), 0, 0)
	}); err == nil {
		t.Error("strict GetT of unwritten tile should fail")
	}
	if err := rt.Parallel(func(p *Proc) {
		p.AccT(a, 1, make([]float64, 4), 0, 0)
		p.GetT(a, make([]float64, 4), 0, 0)
	}); err != nil {
		t.Errorf("Acc marks written: %v", err)
	}
}

func TestTiledDoubleDestroyPanics(t *testing.T) {
	rt := newExec(t, 1)
	a, _ := rt.CreateTiled("T", grids(4, 2, 2), nil, tile.RoundRobin)
	rt.DestroyTiled(a)
	defer func() {
		if recover() == nil {
			t.Error("double destroy did not panic")
		}
	}()
	rt.DestroyTiled(a)
}

func TestTiledOwnerStable(t *testing.T) {
	rt := newExec(t, 3)
	a, _ := rt.CreateTiled("A", grids(6, 2, 4), [][2]int{{0, 1}}, tile.RoundRobin)
	// Owner must be deterministic and in range.
	for ti := 0; ti < 3; ti++ {
		for tj := 0; tj <= ti; tj++ {
			o := a.Owner(ti, tj, 0, 1)
			if o < 0 || o >= 3 {
				t.Fatalf("owner %d out of range", o)
			}
			if o != a.Owner(ti, tj, 0, 1) {
				t.Fatal("owner not deterministic")
			}
		}
	}
}

// TestForEachOwnedTile checks that each process's owned-tile visit is
// exactly ForEachTile filtered by Owner, in the same order, for every
// policy, several process counts, with and without symmetric pairs, and
// for a one-tile slab l grid like runFullyFused's A slabs.
func TestForEachOwnedTile(t *testing.T) {
	g := tile.NewGrid(7, 2) // 4 tiles, the last one narrower
	slab := tile.NewGrid(3, 3)
	shapes := []struct {
		name     string
		grids    []tile.Grid
		symPairs [][2]int
	}{
		{"dense", []tile.Grid{g, g, g, g}, nil},
		{"pairs", []tile.Grid{g, g, g, g}, [][2]int{{0, 1}, {2, 3}}},
		{"slab", []tile.Grid{g, g, g, slab}, [][2]int{{0, 1}}},
		{"inner pair", []tile.Grid{slab, g, g}, [][2]int{{1, 2}}},
	}
	for _, pol := range []tile.Policy{tile.RoundRobin, tile.Block, tile.BlockCyclic} {
		for _, procs := range []int{1, 3, 4, 7} {
			rt, err := NewRuntime(Config{Procs: procs, Mode: Cost})
			if err != nil {
				t.Fatal(err)
			}
			for _, sh := range shapes {
				a, err := rt.CreateTiled(sh.name, sh.grids, sh.symPairs, pol)
				if err != nil {
					t.Fatal(err)
				}
				for p := 0; p < procs; p++ {
					var got, want [][]int
					a.ForEachOwnedTile(p, func(coords []int) {
						got = append(got, append([]int(nil), coords...))
					})
					a.ForEachTile(func(coords []int) {
						if a.Owner(coords...) == p {
							want = append(want, append([]int(nil), coords...))
						}
					})
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%v P=%d %s: process %d visits %v, want %v", pol, procs, sh.name, p, got, want)
					}
				}
			}
		}
	}
}
