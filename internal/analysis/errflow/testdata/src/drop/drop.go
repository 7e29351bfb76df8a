// Package drop is an errflow fixture built against the real ga runtime:
// every way of losing an OOM error, next to the handled forms that must
// stay clean.
package drop

import (
	"fmt"

	"fourindex/internal/ga"
	"fourindex/internal/lb/chain"
	"fourindex/internal/tile"
)

// grids is the 2-D tile grid the array cases allocate over.
func grids() []tile.Grid {
	g := tile.NewGrid(4, 2)
	return []tile.Grid{g, g}
}

// dropExprStmt discards both results of an error-returning collective.
func dropExprStmt(rt *ga.Runtime) {
	rt.CreateTiled("a", grids(), nil, tile.RoundRobin) // want `error from ga\.CreateTiled is discarded`
}

// dropBlank keeps the handle but blanks the error.
func dropBlank(rt *ga.Runtime) *ga.TiledArray {
	a, _ := rt.CreateTiled("a", grids(), nil, tile.RoundRobin) // want `error from ga\.CreateTiled is assigned to the blank identifier`
	return a
}

// dropParallel ignores a poisoned region.
func dropParallel(rt *ga.Runtime) {
	rt.Parallel(func(p *ga.Proc) {}) // want `error from ga\.Parallel is discarded`
}

// dropGo loses the region error in a goroutine.
func dropGo(rt *ga.Runtime) {
	go rt.Parallel(func(p *ga.Proc) {}) // want `error from ga\.Parallel is lost in a go statement`
}

// dropAllocLocal blanks the local-OOM signal.
func dropAllocLocal(p *ga.Proc) ga.Buffer {
	b, _ := p.AllocLocal(8) // want `error from ga\.AllocLocal is assigned to the blank identifier`
	return b
}

// cleanHandled checks and propagates.
func cleanHandled(rt *ga.Runtime) error {
	a, err := rt.CreateTiled("a", grids(), nil, tile.RoundRobin)
	if err != nil {
		return fmt.Errorf("create: %w", err)
	}
	rt.DestroyTiled(a)
	return nil
}

// cleanErrorOnly binds a single error result.
func cleanErrorOnly(rt *ga.Runtime) {
	err := rt.Parallel(func(p *ga.Proc) {})
	if err != nil {
		panic(err)
	}
}

// cleanNoError calls ga APIs without error results; nothing to check.
func cleanNoError(a *ga.TiledArray) {
	a.Bytes()
}

// dropChainBuilder discards a chain builder's validation error.
func dropChainBuilder() {
	chain.FourIndex(24, 2) // want `error from chain\.FourIndex is discarded`
}

// dropChainBound blanks the bound engine's capacity error.
func dropChainBound(c *chain.Chain, cfg chain.Config) float64 {
	b, _ := c.ConfigBoundAt(cfg, 0) // want `error from chain\.ConfigBoundAt is assigned to the blank identifier`
	return b
}

// cleanChain propagates the engine's typed errors.
func cleanChain() (*chain.Chain, error) {
	c, err := chain.MP2(4, 12)
	if err != nil {
		return nil, fmt.Errorf("mp2: %w", err)
	}
	return c, nil
}
