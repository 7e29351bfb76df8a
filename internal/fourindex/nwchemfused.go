package fourindex

import (
	"fourindex/internal/faults"
	"fourindex/internal/ga"
	"fourindex/internal/tile"
)

// nwchemKernelEfficiency is the sustained fraction of tuned-GEMM
// throughput attributed to the baseline's per-row DGEMM structure
// (Listing 4: one DGEMM call per i inside the alpha loop).
const nwchemKernelEfficiency = 0.35

// runNWChemFused models NWChem's production fused 12-34 variant: the
// memory profile of Listing 2 (peak |A| + |O2| ~ n^4/2) but with
// Listing 4's mapping-agnostic owner-computes structure — the O1 and O3
// chunks round-trip through global memory and work is distributed
// without the Section 7.3 communication-avoiding mapping. It also
// parallelises only within one (k, l) chunk at a time, which limits
// parallelism exactly as Section 7.3 describes.
//
// This is the "NWChem Best" baseline of the evaluation whenever the
// unfused transform does not fit: correct, memory-lean, but moving
// ~2(|O1| + |O3|) more data than the op12/34 mapping of Listing 9 and
// with poorer load balance at scale.
func runNWChemFused(opt Options) (*Result, error) {
	c, err := newRunCtx(opt)
	if err != nil {
		return nil, err
	}
	defer c.beginRoot(NWChemFused)()
	c.eff = nwchemKernelEfficiency
	g4 := c.grids4()

	// Single stage checkpoint, as in runFusedPair: a restart after the
	// op12-chunks pass restores O2 and reruns only the op34-chunks pass
	// (idempotent PutT writes into C).
	ckptKey := NWChemFused.String()
	rec, resumed := c.ckptResume(ckptKey)
	var o2T *ga.TiledArray
	if resumed {
		if o2T, err = c.rt.CreateTiled("O2", g4, [][2]int{{0, 1}, {2, 3}}, opt.Policy); err != nil {
			return nil, oomWrap(NWChemFused, err)
		}
		o2T.RestoreTiles(rec.State["O2"])
		o2T.Freeze()
		c.ckptRestore(rec, "op34-chunks")
	} else {
		c.rt.BeginPhase("generate-A")
		aT, err := c.rt.CreateTiled("A", g4, [][2]int{{0, 1}, {2, 3}}, opt.Policy)
		if err != nil {
			return nil, oomWrap(NWChemFused, err)
		}
		if err := c.generateA(aT, 0); err != nil {
			return nil, err
		}

		c.rt.BeginPhase("op12-chunks")
		if o2T, err = c.rt.CreateTiled("O2", g4, [][2]int{{0, 1}, {2, 3}}, opt.Policy); err != nil {
			return nil, oomWrap(NWChemFused, err)
		}

		// Fused op12: one (tk, tl) chunk at a time; the O1 chunk is a
		// distributed array, written by op1 workers and read back by op2
		// workers.
		for tk := 0; tk < c.nt; tk++ {
			for tl := 0; tl <= tk; tl++ {
				wk, wl := c.g.Width(tk), c.g.Width(tl)
				chunkGrids := []tile.Grid{c.g, c.g, tile.NewGrid(wk, wk), tile.NewGrid(wl, wl)}
				o1chunk, err := c.rt.CreateTiled("O1chunk", chunkGrids, nil, opt.Policy)
				if err != nil {
					return nil, oomWrap(NWChemFused, err)
				}
				if err := c.rt.Parallel(func(p *ga.Proc) {
					for tj := 0; tj < c.nt; tj++ {
						if workOwner(p.Procs(), 201, tj, tk, tl) != p.ID() {
							continue
						}
						c.op1(p, aT, o1chunk, c.g.Width(tj), wk*wl,
							func(ti int) (int, int, int, int) { return ti, tj, tk, tl },
							func(ta int) (int, int, int, int) { return ta, tj, 0, 0 })
					}
				}); err != nil {
					return nil, err
				}
				o1chunk.Freeze() // op2 workers only read it back
				if err := c.rt.Parallel(func(p *ga.Proc) {
					for ta := 0; ta < c.nt; ta++ {
						if workOwner(p.Procs(), 202, ta, tk, tl) != p.ID() {
							continue
						}
						c.op2(p, o1chunk, o2T, ta, wk*wl,
							func(tj int) (int, int, int, int) { return ta, tj, 0, 0 },
							func(tb int) (int, int, int, int) { return ta, tb, tk, tl })
					}
				}); err != nil {
					return nil, err
				}
				c.rt.DestroyTiled(o1chunk)
			}
		}
		c.rt.DestroyTiled(aT)
		if c.ckpt() != nil {
			c.ckptSave(faults.Record{
				Scheme:   ckptKey,
				Progress: 1,
				Words:    o2T.Bytes() / 8,
				State:    map[string][]float64{"O2": o2T.SnapshotTiles()},
			})
		}
		// O2 is complete: the op34 chunk passes only read it.
		o2T.Freeze()
	}

	// Cancellation boundary: the op12 stage above is checkpointed, so a
	// canceled run resumes directly into the op34 chunk passes.
	if err := c.canceled(); err != nil {
		return nil, err
	}
	c.rt.BeginPhase("op34-chunks")
	cT, err := c.rt.CreateTiledSparse("C", g4, [][2]int{{0, 1}, {2, 3}}, opt.Policy, c.cSparsity())
	if err != nil {
		return nil, oomWrap(NWChemFused, err)
	}

	// Fused op34: one (ta, tb) chunk at a time with a distributed O3
	// chunk.
	for ta := 0; ta < c.nt; ta++ {
		for tb := 0; tb <= ta; tb++ {
			wa, wb := c.g.Width(ta), c.g.Width(tb)
			chunkGrids := []tile.Grid{tile.NewGrid(wa, wa), tile.NewGrid(wb, wb), c.g, c.g}
			o3chunk, err := c.rt.CreateTiled("O3chunk", chunkGrids, nil, opt.Policy)
			if err != nil {
				return nil, oomWrap(NWChemFused, err)
			}
			if err := c.rt.Parallel(func(p *ga.Proc) {
				for tl := 0; tl < c.nt; tl++ {
					if workOwner(p.Procs(), 203, ta, tb, tl) != p.ID() {
						continue
					}
					// Chunk layout (a, b, c, l): one tile per (tc, tl).
					c.op3(p, o2T, o3chunk, wa*wb, c.g.Width(tl),
						func(tk int) (int, int, int, int) { return ta, tb, tk, tl },
						func(tc int) (int, int, int, int) { return 0, 0, tc, tl })
				}
			}); err != nil {
				return nil, err
			}
			o3chunk.Freeze() // op4 workers only read it back
			if err := c.rt.Parallel(func(p *ga.Proc) {
				for tc := 0; tc < c.nt; tc++ {
					if workOwner(p.Procs(), 204, ta, tb, tc) != p.ID() {
						continue
					}
					c.op4Chunk(p, o3chunk, cT, ta, tb, tc)
				}
			}); err != nil {
				return nil, err
			}
			c.rt.DestroyTiled(o3chunk)
		}
	}
	c.rt.DestroyTiled(o2T)
	c.ckptDrop(ckptKey)

	packed := c.extractC(cT)
	c.rt.DestroyTiled(cT)
	return c.result(NWChemFused, NWChemFused, packed), nil
}

// op4Chunk reads the O3 chunk back and produces C[(ta,tb), tc, td<=tc].
func (c *runCtx) op4Chunk(p *ga.Proc, o3chunk, cT *ga.TiledArray, ta, tb, tc int) {
	wa, wb, wc := c.g.Width(ta), c.g.Width(tb), c.g.Width(tc)
	wab := wa * wb

	// o3big[(a,b)][c in tc][l] over all l.
	o3big := p.MustAllocLocal(int64(wab) * int64(wc) * int64(c.n))
	tileW := wab * wc * c.g.T
	tmp := p.MustAllocLocal(2 * int64(tileW))
	prefetch2(p, c.nt, func(tl int) *ga.Handle {
		return p.NbGetT(o3chunk, sl(tmp, (tl%2)*tileW), 0, 0, tc, tl)
	}, func(tl int) {
		if !c.exec {
			return
		}
		col, _ := c.g.Bounds(tl)
		wl := c.g.Width(tl)
		got := tmp.Data[(tl%2)*tileW:]
		for abc := 0; abc < wab*wc; abc++ { // chunk tile (a, b, c, l)
			src := got[abc*wl : (abc+1)*wl]
			dst := o3big.Data[abc*c.n+col:]
			copy(dst[:wl], src)
		}
	})
	p.FreeLocal(tmp)

	ball := c.bPanel(p, 0, c.n)
	out := p.MustAllocLocal(int64(wab) * int64(wc) * int64(c.g.T))
	wq := newNbQueue(p)
	c.emitC(p, &wq, out, cT, false, ta, tb, tc, o3big.Data, wc*c.n, c.n, ball.Data)
	wq.drain()
	p.FreeLocal(out)
	p.FreeLocal(ball)
	p.FreeLocal(o3big)
}
