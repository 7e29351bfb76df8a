// Package buf is a gadiscipline fixture: it exercises the allocation
// discipline checks against the real ga runtime API. Lines carrying a
// "want" comment are true positives; the rest must stay clean.
package buf

import (
	"fourindex/internal/ga"
	"fourindex/internal/tile"
)

// leakNoFree never releases its buffer.
func leakNoFree(p *ga.Proc) {
	b := p.MustAllocLocal(8) // want `ga\.Buffer "b" is never released`
	_ = b.Words()
}

// leakBeforeReturn frees on the fall-through path but not before the
// early return.
func leakBeforeReturn(p *ga.Proc, cond bool) int {
	b := p.MustAllocLocal(8) // want `not released with FreeLocal before the return on line \d+`
	if cond {
		return 0
	}
	p.FreeLocal(b)
	return 1
}

// discardResult drops the buffer on the floor.
func discardResult(p *ga.Proc) {
	p.MustAllocLocal(8) // want `ga\.Buffer.*discarded`
}

// discardBlank binds the buffer to the blank identifier.
func discardBlank(p *ga.Proc) {
	_, _ = p.AllocLocal(8) // want `ga\.Buffer.*discarded`
}

// cleanStraightLine allocates and frees in order.
func cleanStraightLine(p *ga.Proc) {
	b := p.MustAllocLocal(8)
	_ = b.Words()
	p.FreeLocal(b)
}

// cleanDefer uses a deferred release, covering the early return.
func cleanDefer(p *ga.Proc, cond bool) int {
	b := p.MustAllocLocal(8)
	defer p.FreeLocal(b)
	if cond {
		return 0
	}
	return 1
}

// cleanBothPaths frees on the early-return branch and at the end.
func cleanBothPaths(p *ga.Proc, cond bool) int {
	b := p.MustAllocLocal(8)
	if cond {
		p.FreeLocal(b)
		return 0
	}
	p.FreeLocal(b)
	return 1
}

// cleanWrapper transfers ownership to the caller, like the schedule
// helpers in internal/fourindex.
func cleanWrapper(p *ga.Proc, words int64) ga.Buffer {
	return p.MustAllocLocal(words)
}

// cleanLoop allocates and frees each iteration.
func cleanLoop(p *ga.Proc, iters int) {
	for i := 0; i < iters; i++ {
		b := p.MustAllocLocal(8)
		p.FreeLocal(b)
	}
}

// grids is the 2-D tile grid the array cases allocate over.
func grids() []tile.Grid {
	g := tile.NewGrid(4, 2)
	return []tile.Grid{g, g}
}

// leakArray creates a distributed array and never destroys it.
func leakArray(rt *ga.Runtime) {
	a, err := rt.CreateTiled("leak", grids(), nil, tile.RoundRobin) // want `distributed array "a" is neither destroyed`
	if err != nil {
		return
	}
	_ = a.Bytes()
}

// cleanArray destroys what it creates.
func cleanArray(rt *ga.Runtime) error {
	a, err := rt.CreateTiled("ok", grids(), nil, tile.RoundRobin)
	if err != nil {
		return err
	}
	rt.DestroyTiled(a)
	return nil
}

// cleanArrayStored hands the array off by storing it, the slab pattern
// of the fused schedules.
func cleanArrayStored(rt *ga.Runtime, out []*ga.TiledArray) error {
	a, err := rt.CreateTiled("stored", grids(), nil, tile.RoundRobin)
	if err != nil {
		return err
	}
	out[0] = a
	return nil
}

// cleanArrayReturned transfers ownership to the caller.
func cleanArrayReturned(rt *ga.Runtime) (*ga.TiledArray, error) {
	return rt.CreateTiled("ret", grids(), nil, tile.RoundRobin)
}

// collectiveInRegion calls collectives from inside a Parallel body.
func collectiveInRegion(rt *ga.Runtime, a *ga.TiledArray) error {
	return rt.Parallel(func(p *ga.Proc) {
		b, err := rt.CreateTiled("inner", grids(), nil, tile.RoundRobin) // want `collective ga\.Runtime\.CreateTiled called inside a Parallel region`
		if err != nil {
			return
		}
		rt.DestroyTiled(b) // want `collective ga\.Runtime\.DestroyTiled called inside a Parallel region`
	})
}

// regionEscape leaks a per-process buffer out of its region.
func regionEscape(rt *ga.Runtime) error {
	var leak ga.Buffer
	err := rt.Parallel(func(p *ga.Proc) {
		leak = p.MustAllocLocal(8) // want `declared outside the Parallel region`
		p.FreeLocal(leak)
	})
	_ = leak
	return err
}

// cleanRegion allocates, uses, and frees inside the region.
func cleanRegion(rt *ga.Runtime, a *ga.TiledArray) error {
	return rt.Parallel(func(p *ga.Proc) {
		b := p.MustAllocLocal(16)
		p.GetT(a, b.Data, 0, 0)
		p.FreeLocal(b)
	})
}
