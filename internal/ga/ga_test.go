package ga

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"fourindex/internal/cluster"
	"fourindex/internal/metrics"
	"fourindex/internal/tile"
)

func newExec(t *testing.T, procs int) *Runtime {
	t.Helper()
	rt, err := NewRuntime(Config{Procs: procs, Mode: Execute})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestNewRuntimeValidation(t *testing.T) {
	if _, err := NewRuntime(Config{Procs: 0}); err == nil {
		t.Error("zero procs should error")
	}
	rt := newExec(t, 4)
	if rt.Procs() != 4 || rt.Mode() != Execute {
		t.Error("runtime config not reflected")
	}
	if Execute.String() != "execute" || Cost.String() != "cost" {
		t.Error("Mode.String() wrong")
	}
}

func TestCreatePutGetRoundTrip(t *testing.T) {
	rt := newExec(t, 3)
	a, err := rt.CreateTiled("A", grids(5, 2, 2), nil, tile.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	// A ragged edge tile (rows 4..5, cols 2..4), written by one process
	// and read back by another in a later region.
	err = rt.Parallel(func(p *Proc) {
		if p.ID() != 0 {
			return
		}
		buf := make([]float64, 2)
		for i := range buf {
			buf[i] = float64(i + 1)
		}
		p.PutT(a, buf, 2, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Parallel(func(p *Proc) {
		if p.ID() != 2 {
			return
		}
		got := make([]float64, 2)
		if w := p.GetT(a, got, 2, 1); w != 2 {
			t.Errorf("GetT returned %d words, want 2", w)
		}
		for i := range got {
			if got[i] != float64(i+1) {
				t.Errorf("got[%d] = %v, want %d", i, got[i], i+1)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.DestroyTiled(a)
}

func TestAccAccumulatesConcurrently(t *testing.T) {
	rt := newExec(t, 8)
	a, _ := rt.CreateTiled("C", grids(6, 3, 2), nil, tile.RoundRobin)
	err := rt.Parallel(func(p *Proc) {
		buf := make([]float64, 9)
		for i := range buf {
			buf[i] = 1
		}
		a.ForEachTile(func(coords []int) { p.AccT(a, 1, buf, coords...) })
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range a.SnapshotTiles() {
		if v != 8 {
			t.Fatalf("element %d = %v, want 8 (one per process)", i, v)
		}
	}
}

func TestAccAlpha(t *testing.T) {
	rt := newExec(t, 1)
	a, _ := rt.CreateTiled("C", grids(2, 2, 2), nil, tile.RoundRobin)
	_ = rt.Parallel(func(p *Proc) {
		buf := []float64{1, 2, 3, 4}
		p.AccT(a, 2.5, buf, 0, 0)
	})
	want := []float64{2.5, 5, 7.5, 10}
	for i, v := range a.SnapshotTiles() {
		if v != want[i] {
			t.Errorf("elem %d = %v, want %v", i, v, want[i])
		}
	}
}

func TestRemoteVsIntraAccounting(t *testing.T) {
	rt := newExec(t, 2)
	// 2 row tiles, round robin: tile (0,0) -> proc 0, tile (1,0) -> proc 1.
	a, _ := rt.CreateTiled("A", []tile.Grid{tile.NewGrid(4, 2), tile.NewGrid(2, 2)}, nil, tile.RoundRobin)
	err := rt.Parallel(func(p *Proc) {
		if p.ID() != 0 {
			return
		}
		buf := make([]float64, 4)
		p.PutT(a, buf, 0, 0) // rows 0-1: local
		p.PutT(a, buf, 1, 0) // rows 2-3: remote
	})
	if err != nil {
		t.Fatal(err)
	}
	c0 := rt.ProcCounters(0)
	if got := c0.Stores(metrics.LevelIntra); got != 4 {
		t.Errorf("intra stores = %d, want 4", got)
	}
	if got := c0.Stores(metrics.LevelGlobal); got != 4 {
		t.Errorf("remote stores = %d, want 4", got)
	}
	if rt.CommVolume() != 4 || rt.IntraVolume() != 4 {
		t.Errorf("volumes comm=%d intra=%d", rt.CommVolume(), rt.IntraVolume())
	}
}

func TestOwnershipHelpers(t *testing.T) {
	rt := newExec(t, 3)
	a, _ := rt.CreateTiled("A", grids(9, 3, 2), nil, tile.RoundRobin)
	// 3x3 tiles; linear id = tr*3+tc; owner = id % 3.
	if a.Owner(0, 0) != 0 || a.Owner(0, 1) != 1 || a.Owner(1, 0) != 0 || a.Owner(1, 2) != 2 {
		t.Error("Owner mismatch")
	}
	if a.Bytes() != 9*9*8 {
		t.Errorf("Bytes = %d", a.Bytes())
	}
}

func TestGlobalMemoryEnforcement(t *testing.T) {
	rt, _ := NewRuntime(Config{Procs: 1, Mode: Execute, GlobalMemBytes: 1000})
	a, err := rt.CreateTiled("A", grids(10, 5, 2), nil, tile.RoundRobin) // 800 B
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.CreateTiled("B", grids(10, 5, 2), nil, tile.RoundRobin); !errors.Is(err, ErrGlobalOOM) {
		t.Errorf("expected ErrGlobalOOM, got %v", err)
	}
	rt.DestroyTiled(a)
	// After destroy the capacity is free again.
	b, err := rt.CreateTiled("B", grids(10, 5, 2), nil, tile.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	rt.DestroyTiled(b)
	if rt.GlobalBytes() != 0 || rt.LiveArrays() != 0 {
		t.Error("memory not released")
	}
	if rt.PeakGlobalBytes() != 800 {
		t.Errorf("peak = %d, want 800", rt.PeakGlobalBytes())
	}
}

func TestLocalMemoryEnforcement(t *testing.T) {
	rt, _ := NewRuntime(Config{Procs: 1, Mode: Execute, LocalMemBytes: 80})
	err := rt.Parallel(func(p *Proc) {
		b1 := p.MustAllocLocal(5) // 40 B
		if b1.Data == nil || b1.Words() != 5 {
			t.Error("execute-mode buffer missing data")
		}
		if _, err := p.AllocLocal(6); !errors.Is(err, ErrLocalOOM) {
			t.Errorf("expected ErrLocalOOM, got %v", err)
		}
		p.FreeLocal(b1)
		b2 := p.MustAllocLocal(10) // exactly 80 B
		p.FreeLocal(b2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.ProcCounters(0).Peak(); got != 10 {
		t.Errorf("local peak = %d elements, want 10", got)
	}
}

func TestMustAllocLocalPanicsToError(t *testing.T) {
	rt, _ := NewRuntime(Config{Procs: 2, Mode: Execute, LocalMemBytes: 8})
	err := rt.Parallel(func(p *Proc) {
		p.MustAllocLocal(100)
	})
	if !errors.Is(err, ErrLocalOOM) {
		t.Errorf("Parallel should surface MustAllocLocal failure, got %v", err)
	}
}

func TestParallelPanicPoisonsBarrier(t *testing.T) {
	rt := newExec(t, 3)
	err := rt.Parallel(func(p *Proc) {
		if p.ID() == 1 {
			panic("boom")
		}
		p.Barrier() // would deadlock without poisoning
	})
	if err == nil {
		t.Fatal("expected error from panicking process")
	}
	// Runtime remains usable after a failed region.
	if err := rt.Parallel(func(p *Proc) { p.Barrier() }); err != nil {
		t.Fatalf("runtime unusable after failure: %v", err)
	}
}

func TestBarrierSynchronisesClocks(t *testing.T) {
	run, err := cluster.SystemB().Configure(4, 28)
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := NewRuntime(Config{Procs: 4, Mode: Cost, Run: &run})
	err = rt.Parallel(func(p *Proc) {
		p.Compute(int64(p.ID()) * 1e9) // unequal work
		p.Barrier()
		c := p.Clock()
		want := run.ComputeSeconds(3e9)
		if math.Abs(c-want) > 1e-12 {
			t.Errorf("proc %d clock = %v, want max %v", p.ID(), c, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Elapsed() <= 0 {
		t.Error("Elapsed should be positive")
	}
}

func TestCostModeAccountsWithoutData(t *testing.T) {
	run, _ := cluster.SystemA().Configure(2, 8)
	rt, _ := NewRuntime(Config{Procs: 2, Mode: Cost, Run: &run})
	// A deliberately huge array: must not allocate element storage.
	a, err := rt.CreateTiled("big", grids(1_000_000, 10_000, 2), nil, tile.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Parallel(func(p *Proc) {
		if p.ID() == 0 {
			p.PutT(a, nil, 0, 0)
			p.GetT(a, nil, 0, 1)
		}
		p.Compute(12345)
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := rt.Totals()
	if tot.Flops != 2*12345 {
		t.Errorf("flops = %d", tot.Flops)
	}
	moved := rt.CommVolume() + rt.IntraVolume()
	if moved != 2*10_000*10_000 {
		t.Errorf("moved = %d elements", moved)
	}
	if rt.Elapsed() <= 0 {
		t.Error("cost mode should advance simulated time")
	}
	rt.DestroyTiled(a)
}

func TestStrictReadBeforeWrite(t *testing.T) {
	rt, _ := NewRuntime(Config{Procs: 1, Mode: Execute, Strict: true})
	a, _ := rt.CreateTiled("A", grids(4, 2, 2), nil, tile.RoundRobin)
	err := rt.Parallel(func(p *Proc) {
		buf := make([]float64, 4)
		p.GetT(a, buf, 0, 0)
	})
	if err == nil {
		t.Fatal("strict mode should reject Get of never-written tile")
	}
	if want := `ga: process 0 panicked: ga: strict: GetT of never-written tile [0 0] of "A"`; err.Error() != want {
		t.Errorf("GetT error = %q, want %q", err, want)
	}
	ov, _ := NewRuntime(Config{Procs: 1, Mode: Execute, Strict: true, Overlap: true})
	b, _ := ov.CreateTiled("B", grids(4, 2, 2), nil, tile.RoundRobin)
	err = ov.Parallel(func(p *Proc) {
		p.NbGetT(b, make([]float64, 4), 1, 0).Wait(p)
	})
	if want := `ga: process 0 panicked: ga: strict: NbGetT of never-written tile [1 0] of "B"`; err == nil || err.Error() != want {
		t.Errorf("NbGetT error = %v, want %q", err, want)
	}
	err = rt.Parallel(func(p *Proc) {
		buf := []float64{1, 2, 3, 4}
		p.PutT(a, buf, 0, 0)
		p.GetT(a, buf, 0, 0)
	})
	if err != nil {
		t.Fatalf("Get after Put should pass strict mode: %v", err)
	}
}

func TestUseAfterDestroyPanics(t *testing.T) {
	rt := newExec(t, 1)
	a, _ := rt.CreateTiled("A", grids(2, 2, 2), nil, tile.RoundRobin)
	rt.DestroyTiled(a)
	err := rt.Parallel(func(p *Proc) {
		p.GetT(a, make([]float64, 4), 0, 0)
	})
	if err == nil {
		t.Error("Get after destroy should fail")
	}
}

func TestCreateInvalidShape(t *testing.T) {
	rt := newExec(t, 1)
	if _, err := rt.CreateTiled("A", nil, nil, tile.RoundRobin); err == nil {
		t.Error("zero dimensions should error")
	}
	if rt.LiveArrays() != 0 || rt.GlobalBytes() != 0 {
		t.Error("failed create must not charge the ledger")
	}
}

func TestParallelRunsAllProcs(t *testing.T) {
	rt := newExec(t, 7)
	var n atomic.Int32
	if err := rt.Parallel(func(p *Proc) { n.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 7 {
		t.Errorf("ran %d procs, want 7", n.Load())
	}
}

// Fault injection: a panic deep inside one work unit of a large parallel
// region must surface as a single error, leave the runtime reusable, and
// leak no arrays.
func TestFaultInjectionMidSchedule(t *testing.T) {
	rt := newExec(t, 8)
	a, _ := rt.CreateTiled("T", grids(16, 4, 2), nil, tile.RoundRobin)
	err := rt.Parallel(func(p *Proc) {
		for ti := 0; ti < 4; ti++ {
			for tj := 0; tj < 4; tj++ {
				if a.Owner(ti, tj) != p.ID() {
					continue
				}
				if ti == 2 && tj == 3 {
					panic("injected fault")
				}
				buf := make([]float64, a.TileWords([]int{ti, tj}))
				p.PutT(a, buf, ti, tj)
			}
		}
	})
	if err == nil {
		t.Fatal("injected fault not surfaced")
	}
	rt.DestroyTiled(a)
	if rt.LiveArrays() != 0 {
		t.Errorf("leaked arrays: %d", rt.LiveArrays())
	}
	// Runtime still functional.
	b, err := rt.CreateTiled("U", grids(4, 2, 2), nil, tile.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Parallel(func(p *Proc) { p.Barrier() }); err != nil {
		t.Fatalf("runtime unusable after fault: %v", err)
	}
	rt.DestroyTiled(b)
}
