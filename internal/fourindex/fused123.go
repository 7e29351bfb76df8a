package fourindex

import (
	"fmt"

	"fourindex/internal/faults"
	"fourindex/internal/ga"
	"fourindex/internal/tile"
)

// runFused123 executes the op123/4 configuration: loop l is fused across
// the first THREE contractions (A, O1 and O2 exist only as slabs), but
// O3 is fully materialised and the fourth contraction runs unfused on
// it. Theorem 5.2 proves this strictly worse than op12/34 — |O3| is the
// larger intermediate (n^4/2 vs n^4/4), so its round trip through global
// memory costs more than O2's — and this implementation exists precisely
// so that ordering is measurable on the simulator rather than only on
// the lower-bound formulas.
//
// The fused-loop tiling reuses the data-tile grid (TileL is ignored):
// the O3 slab of each outer iteration lands directly in the full O3
// tensor's matching l tile.
func runFused123(opt Options) (*Result, error) {
	c, err := newRunCtx(opt)
	if err != nil {
		return nil, err
	}
	defer c.beginRoot(Fused123)()
	g4 := c.grids4()

	// Full O3[a>=b, c, l], written slab-by-slab.
	o3T, err := c.rt.CreateTiled("O3", g4, [][2]int{{0, 1}}, opt.Policy)
	if err != nil {
		return nil, oomWrap(Fused123, err)
	}

	// Resume at the slab after the last one a prior attempt completed.
	// The final slab's record has Progress == n, which resolves to
	// startTile == nt: the loop is skipped and only op4 (idempotent
	// PutT writes) re-runs against the restored O3.
	startTile := 0
	ckptKey := Fused123.String()
	if rec, ok := c.ckptResume(ckptKey); ok {
		if t, aligned := tileStartingAt(c.g, rec.Progress); aligned {
			o3T.RestoreTiles(rec.State["O3"])
			startTile = t
			c.ckptRestore(rec, fmt.Sprintf("l-slab %d", t))
		}
	}

	for tlo := startTile; tlo < c.nt; tlo++ {
		// Cancellation boundary: every slab before tlo is checkpointed,
		// so stopping here loses no completed work.
		if err := c.canceled(); err != nil {
			return nil, err
		}
		lOff, lHi := c.g.Bounds(tlo)
		wl := lHi - lOff
		slabGrids := []tile.Grid{c.g, c.g, c.g, tile.NewGrid(wl, wl)}
		if c.rt.Tracing() {
			// Guarded so the disabled path never pays the Sprintf.
			c.rt.TraceMark(fmt.Sprintf("l-slab %d/%d", tlo, c.nt))
		}

		c.rt.BeginPhase("generate-A-slab")
		aT, err := c.rt.CreateTiled("Al", slabGrids, [][2]int{{0, 1}}, opt.Policy)
		if err != nil {
			return nil, oomWrap(Fused123, err)
		}
		if err := c.generateA(aT, lOff); err != nil {
			return nil, err
		}

		// op1 and op2 over the slab, exactly as in Listing 8.
		c.rt.BeginPhase("op1")
		o1T, err := c.rt.CreateTiled("O1l", slabGrids, nil, opt.Policy)
		if err != nil {
			return nil, oomWrap(Fused123, err)
		}
		if err := c.rt.Parallel(func(p *ga.Proc) {
			for tj := 0; tj < c.nt; tj++ {
				for tk := 0; tk < c.nt; tk++ {
					if workOwner(p.Procs(), 121, tj, tk, tlo) != p.ID() {
						continue
					}
					c.op1(p, aT, o1T, c.g.Width(tj), c.g.Width(tk)*wl,
						func(ti int) (int, int, int, int) { return ti, tj, tk, 0 },
						func(ta int) (int, int, int, int) { return ta, tj, tk, 0 })
				}
			}
		}); err != nil {
			return nil, err
		}
		c.rt.DestroyTiled(aT)
		o1T.Freeze()

		c.rt.BeginPhase("op2")
		o2T, err := c.rt.CreateTiled("O2l", slabGrids, [][2]int{{0, 1}}, opt.Policy)
		if err != nil {
			return nil, oomWrap(Fused123, err)
		}
		if err := c.rt.Parallel(func(p *ga.Proc) {
			for ta := 0; ta < c.nt; ta++ {
				for tk := 0; tk < c.nt; tk++ {
					if workOwner(p.Procs(), 122, ta, tk, tlo) != p.ID() {
						continue
					}
					c.op2(p, o1T, o2T, ta, c.g.Width(tk)*wl,
						func(tj int) (int, int, int, int) { return ta, tj, tk, 0 },
						func(tb int) (int, int, int, int) { return ta, tb, tk, 0 })
				}
			}
		}); err != nil {
			return nil, err
		}
		c.rt.DestroyTiled(o1T)
		o2T.Freeze()

		// op3 writes this slab's tiles into the FULL O3 tensor.
		c.rt.BeginPhase("op3")
		if err := c.rt.Parallel(func(p *ga.Proc) {
			for ta := 0; ta < c.nt; ta++ {
				for tb := 0; tb <= ta; tb++ {
					if workOwner(p.Procs(), 123, ta, tb, tlo) != p.ID() {
						continue
					}
					c.op3(p, o2T, o3T, c.g.Width(ta)*c.g.Width(tb), wl,
						func(tk int) (int, int, int, int) { return ta, tb, tk, 0 },
						func(tc int) (int, int, int, int) { return ta, tb, tc, tlo })
				}
			}
		}); err != nil {
			return nil, err
		}
		c.rt.DestroyTiled(o2T)
		if c.ckpt() != nil {
			c.ckptSave(faults.Record{
				Scheme:   ckptKey,
				Progress: lHi,
				Words:    o3T.Bytes() / 8,
				State:    map[string][]float64{"O3": o3T.SnapshotTiles()},
			})
		}
	}

	// op4 unfused over the materialised O3, now complete and read-only.
	o3T.Freeze()
	c.rt.BeginPhase("op4")
	cT, err := c.rt.CreateTiledSparse("C", g4, [][2]int{{0, 1}, {2, 3}}, opt.Policy, c.cSparsity())
	if err != nil {
		return nil, oomWrap(Fused123, err)
	}
	if err := c.rt.Parallel(func(p *ga.Proc) { c.op4Unfused(p, o3T, cT) }); err != nil {
		return nil, err
	}
	c.rt.DestroyTiled(o3T)
	c.ckptDrop(ckptKey)

	packed := c.extractC(cT)
	c.rt.DestroyTiled(cT)
	return c.result(Fused123, Fused123, packed), nil
}
