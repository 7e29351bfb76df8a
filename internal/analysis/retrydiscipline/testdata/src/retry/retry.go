// Package retry is a retrydiscipline fixture built against the real ga
// runtime: every way of swallowing an operation error inside a Parallel
// region, next to the handled forms that must stay clean.
package retry

import (
	"fmt"

	"fourindex/internal/ga"
	"fourindex/internal/tile"
)

// dropExpr discards the error-returning call outright.
func dropExpr(rt *ga.Runtime) error {
	return rt.Parallel(func(p *ga.Proc) {
		p.AllocLocal(8) // want `error from ga\.AllocLocal inside a Parallel region is discarded`
	})
}

// blankInRegion keeps the buffer but blanks the error.
func blankInRegion(rt *ga.Runtime) error {
	return rt.Parallel(func(p *ga.Proc) {
		b, _ := p.AllocLocal(8) // want `error from ga\.AllocLocal inside a Parallel region is assigned to the blank identifier`
		p.FreeLocal(b)
	})
}

// neverConsumed binds the error but only ever compares it to nil: the
// faulted process returns early and the region still reports success.
func neverConsumed(rt *ga.Runtime) error {
	return rt.Parallel(func(p *ga.Proc) {
		b, err := p.AllocLocal(8) // want `error from ga\.AllocLocal inside a Parallel region is never consumed`
		if err != nil {
			return
		}
		p.FreeLocal(b)
	})
}

// cleanFatal hands the error to Proc.Fatal, poisoning the barrier.
func cleanFatal(rt *ga.Runtime) error {
	return rt.Parallel(func(p *ga.Proc) {
		b, err := p.AllocLocal(8)
		if err != nil {
			p.Fatal(fmt.Errorf("alloc: %w", err))
		}
		p.FreeLocal(b)
	})
}

// cleanPanic propagates through the region's panic recovery.
func cleanPanic(rt *ga.Runtime) error {
	return rt.Parallel(func(p *ga.Proc) {
		b, err := p.AllocLocal(8)
		if err != nil {
			panic(err)
		}
		p.FreeLocal(b)
	})
}

// cleanRetry retries the operation and marks the final failure fatal;
// Fatal(nil) on the success path is a no-op.
func cleanRetry(rt *ga.Runtime) error {
	return rt.Parallel(func(p *ga.Proc) {
		var b ga.Buffer
		var err error
		for attempt := 0; attempt < 3; attempt++ {
			if b, err = p.AllocLocal(8); err == nil {
				break
			}
		}
		p.Fatal(err)
		p.FreeLocal(b)
	})
}

// cleanOutsideRegion: errors outside Parallel regions are errflow's
// business, not this analyzer's.
func cleanOutsideRegion(rt *ga.Runtime) {
	_, _ = rt.CreateTiled("a", []tile.Grid{tile.NewGrid(4, 2)}, nil, tile.RoundRobin)
}
