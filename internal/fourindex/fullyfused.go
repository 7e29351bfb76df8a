package fourindex

import (
	"fmt"

	"fourindex/internal/faults"
	"fourindex/internal/ga"
	"fourindex/internal/tile"
)

// runFullyFused executes the paper's new parallel four-index transform:
// loop l is fused across all four contractions with tile width TileL
// (Section 7.1, Listing 8), so only O(n^3 * Tl) slabs of A and the
// intermediates ever exist, plus the resident output C. By Theorem 6.2
// this runs the largest possible problem for a given aggregate memory
// without disk I/O or recomputation of O-intermediates.
//
// With inner = true the inner four-index transform additionally fuses
// op12 and op34 (Section 7.2, Listing 10), eliminating the O1 and O3
// slabs' global traffic and minimising communication volume; AlphaPar
// splits each k work unit over alpha ranges (Section 7.3) at the price
// of replicated A reads.
func runFullyFused(opt Options, inner bool) (*Result, error) {
	scheme := FullyFused
	if inner {
		scheme = FullyFusedInner
	}
	c, err := newRunCtx(opt)
	if err != nil {
		return nil, err
	}
	defer c.beginRoot(scheme)()
	g4 := c.grids4()

	cT, err := c.rt.CreateTiledSparse("C", g4, [][2]int{{0, 1}, {2, 3}}, opt.Policy, c.cSparsity())
	if err != nil {
		return nil, oomWrap(scheme, err)
	}

	alphaPar := opt.AlphaPar
	if alphaPar > c.nt {
		alphaPar = c.nt
	}
	lPar := opt.LPar
	if !inner {
		lPar = 1 // nested l tiling is implemented on the Listing 10 path
	}
	if lPar > c.gl.NumTiles() {
		lPar = c.gl.NumTiles()
	}

	// Resume from the last completed l slab if a prior attempt of this
	// schedule checkpointed one. Progress is an element offset into l so
	// the record stays valid across TileL changes only when a tile
	// boundary still lands there; otherwise it is ignored and the slab
	// loop restarts from zero (correct either way: C is restored only on
	// an aligned hit).
	startTile := 0
	ckptKey := scheme.String()
	if rec, ok := c.ckptResume(ckptKey); ok {
		if t, aligned := tileStartingAt(c.gl, rec.Progress); aligned {
			cT.RestoreTiles(rec.State["C"])
			startTile = t
			c.ckptRestore(rec, fmt.Sprintf("l-slab %d", t))
		}
	}

	pairs := triPairs(c.nt) // A's canonical (i, j) tile pairs, read by every op12 unit
	for tlo := startTile; tlo < c.gl.NumTiles(); tlo += lPar {
		// Cancellation boundary: every slab before tlo is checkpointed,
		// so stopping here loses no completed work.
		if err := c.canceled(); err != nil {
			return nil, err
		}
		batch := min(lPar, c.gl.NumTiles()-tlo)
		if c.rt.Tracing() {
			// Guarded so the disabled path never pays the Sprintf.
			c.rt.TraceMark(fmt.Sprintf("l-slab %d/%d", tlo, c.gl.NumTiles()))
		}

		// Fusing l breaks the (k, l) symmetry: the A slabs keep only
		// the (i, j) pair symmetry and integrals are regenerated per
		// slab (Section 7.4's symmetry-breaking cost). With lPar > 1
		// several l slabs are in flight together — Section 7.3's
		// "nested tiling of l" alternative — multiplying slab memory
		// and parallelism alike.
		aTs := make([]*ga.TiledArray, batch)
		lOffs := make([]int, batch)
		widths := make([]int, batch)
		slabGridsAll := make([][]tile.Grid, batch)
		c.rt.BeginPhase("generate-A-slab")
		for i := 0; i < batch; i++ {
			lOff, lHi := c.gl.Bounds(tlo + i)
			lOffs[i] = lOff
			widths[i] = lHi - lOff
			slabGridsAll[i] = []tile.Grid{c.g, c.g, c.g, tile.NewGrid(widths[i], widths[i])}
			aT, err := c.rt.CreateTiled("Al", slabGridsAll[i], [][2]int{{0, 1}}, opt.Policy)
			if err != nil {
				return nil, oomWrap(scheme, err)
			}
			aTs[i] = aT
		}
		if err := c.generateABatch(aTs, lOffs); err != nil {
			return nil, err
		}

		if inner {
			if err := c.innerSlabs(aTs, cT, slabGridsAll, lOffs, pairs, alphaPar); err != nil {
				return nil, err
			}
		} else {
			if err := c.plainSlab(aTs[0], cT, slabGridsAll[0], widths[0], lOffs[0]); err != nil {
				return nil, err
			}
		}
		for _, aT := range aTs {
			c.rt.DestroyTiled(aT)
		}
		if c.ckpt() != nil {
			// All of C's partial sums through l < done are in place;
			// a restart re-enters the loop at the next slab.
			done := lOffs[batch-1] + widths[batch-1]
			c.ckptSave(faults.Record{
				Scheme:   ckptKey,
				Progress: done,
				Words:    cT.Bytes() / 8,
				State:    map[string][]float64{"C": cT.SnapshotTiles()},
			})
		}
	}
	c.ckptDrop(ckptKey)

	packed := c.extractC(cT)
	c.rt.DestroyTiled(cT)
	return c.result(scheme, scheme, packed), nil
}

// innerSlabs runs the Listing 10 inner transform for a batch of l slabs
// processed concurrently: op12 fused (work units (slab, tk, alpha-chunk))
// producing the O2 slabs, then op34 fused (work units (ta, tb), each
// looping over the batch's slabs) accumulating into C. A batch of one is
// the plain Listing 10 schedule.
func (c *runCtx) innerSlabs(aTs []*ga.TiledArray, cT *ga.TiledArray, slabGridsAll [][]tile.Grid, lOffs []int, pairs [][2]int, alphaPar int) error {
	batch := len(aTs)
	c.rt.BeginPhase("op12-fused")
	o2Ts := make([]*ga.TiledArray, batch)
	for i := 0; i < batch; i++ {
		o2T, err := c.rt.CreateTiled("O2l", slabGridsAll[i], [][2]int{{0, 1}}, c.opt.Policy)
		if err != nil {
			return oomWrap(FullyFusedInner, err)
		}
		o2Ts[i] = o2T
	}
	if err := c.rt.Parallel(func(p *ga.Proc) {
		for i := 0; i < batch; i++ {
			for tk := 0; tk < c.nt; tk++ {
				for chunk := 0; chunk < alphaPar; chunk++ {
					ta0 := chunk * c.nt / alphaPar
					ta1 := (chunk + 1) * c.nt / alphaPar
					if ta0 >= ta1 {
						continue
					}
					if workOwner(p.Procs(), 112, i, tk, chunk) != p.ID() {
						continue
					}
					c.op12Unit(p, aTs[i], o2Ts[i], pairs, tk, 0, ta0, ta1)
				}
			}
		}
	}); err != nil {
		return err
	}
	for _, o2T := range o2Ts {
		o2T.Freeze() // op34 only reads the completed O2 slabs
	}
	c.rt.BeginPhase("op34-fused")
	// One process owns each (ta, tb) across the whole batch and adds the
	// slabs into C in slab order, so C's accumulation order (and hence
	// its bits) does not depend on LPar or on goroutine scheduling. The
	// owner is the one LPar=1 assigns.
	if err := c.rt.Parallel(func(p *ga.Proc) {
		for ta := 0; ta < c.nt; ta++ {
			for tb := 0; tb <= ta; tb++ {
				if workOwner(p.Procs(), 134, 0, ta, tb) != p.ID() {
					continue
				}
				for i := 0; i < batch; i++ {
					c.op34Unit(p, o2Ts[i], cT, nil, ta, tb, lOffs[i], true)
				}
			}
		}
	}); err != nil {
		return err
	}
	for _, o2T := range o2Ts {
		c.rt.DestroyTiled(o2T)
	}
	return nil
}

// plainSlab runs the Listing 8 inner transform for one l slab: four
// separate contractions over slab tensors, the last accumulating into C.
func (c *runCtx) plainSlab(aT, cT *ga.TiledArray, slabGrids []tile.Grid, wl, lOff int) error {
	// op1: O1[a, j, k, lslab] = sum_i A[ij, k, lslab] B[a, i].
	c.rt.BeginPhase("op1")
	o1T, err := c.rt.CreateTiled("O1l", slabGrids, nil, c.opt.Policy)
	if err != nil {
		return oomWrap(FullyFused, err)
	}
	if err := c.rt.Parallel(func(p *ga.Proc) {
		for tj := 0; tj < c.nt; tj++ {
			for tk := 0; tk < c.nt; tk++ {
				if workOwner(p.Procs(), 81, tj, tk) != p.ID() {
					continue
				}
				c.op1(p, aT, o1T, c.g.Width(tj), c.g.Width(tk)*wl,
					func(ti int) (int, int, int, int) { return ti, tj, tk, 0 },
					func(ta int) (int, int, int, int) { return ta, tj, tk, 0 })
			}
		}
	}); err != nil {
		return err
	}
	o1T.Freeze()

	// op2: O2[a>=b, k, lslab] = sum_j O1[a, j, k, lslab] B[b, j].
	c.rt.BeginPhase("op2")
	o2T, err := c.rt.CreateTiled("O2l", slabGrids, [][2]int{{0, 1}}, c.opt.Policy)
	if err != nil {
		return oomWrap(FullyFused, err)
	}
	if err := c.rt.Parallel(func(p *ga.Proc) {
		for ta := 0; ta < c.nt; ta++ {
			for tk := 0; tk < c.nt; tk++ {
				if workOwner(p.Procs(), 82, ta, tk) != p.ID() {
					continue
				}
				c.op2(p, o1T, o2T, ta, c.g.Width(tk)*wl,
					func(tj int) (int, int, int, int) { return ta, tj, tk, 0 },
					func(tb int) (int, int, int, int) { return ta, tb, tk, 0 })
			}
		}
	}); err != nil {
		return err
	}
	c.rt.DestroyTiled(o1T)
	o2T.Freeze()

	// op3: O3[a>=b, c, lslab] = sum_k O2[ab, k, lslab] B[c, k].
	c.rt.BeginPhase("op3")
	o3T, err := c.rt.CreateTiled("O3l", slabGrids, [][2]int{{0, 1}}, c.opt.Policy)
	if err != nil {
		return oomWrap(FullyFused, err)
	}
	if err := c.rt.Parallel(func(p *ga.Proc) {
		for ta := 0; ta < c.nt; ta++ {
			for tb := 0; tb <= ta; tb++ {
				if workOwner(p.Procs(), 83, ta, tb) != p.ID() {
					continue
				}
				c.op3(p, o2T, o3T, c.g.Width(ta)*c.g.Width(tb), wl,
					func(tk int) (int, int, int, int) { return ta, tb, tk, 0 },
					func(tc int) (int, int, int, int) { return ta, tb, tc, 0 })
			}
		}
	}); err != nil {
		return err
	}
	c.rt.DestroyTiled(o2T)
	o3T.Freeze()

	// op4: C[a>=b, c>=d] += O3[ab, c, lslab] B[d, lOff+l].
	c.rt.BeginPhase("op4")
	if err := c.rt.Parallel(func(p *ga.Proc) {
		for ta := 0; ta < c.nt; ta++ {
			for tb := 0; tb <= ta; tb++ {
				if workOwner(p.Procs(), 84, ta, tb) != p.ID() {
					continue
				}
				c.op4Slab(p, o3T, cT, ta, tb, wl, lOff)
			}
		}
	}); err != nil {
		return err
	}
	c.rt.DestroyTiled(o3T)
	return nil
}

// op4Slab accumulates this slab's contribution to C.
func (c *runCtx) op4Slab(p *ga.Proc, o3T, cT *ga.TiledArray, ta, tb, wl, lOff int) {
	if c.nt == 0 {
		return // empty grid: nothing to fetch, and the tc loop below assumes one trip
	}
	wa, wb := c.g.Width(ta), c.g.Width(tb)
	wab := wa * wb

	// The O3 slab tile for tc is already laid out [(a,b)][c][l] with row
	// stride wl — exactly the GEMM operand layout — so no packed plane is
	// needed: double-buffer the per-tc tiles and feed GEMM from the tile
	// buffer directly, with the gets for tc+1 in flight during tc's GEMMs.
	tileW := wab * c.g.T * wl
	tmp := p.MustAllocLocal(2 * int64(tileW))
	issue := func(tc int) *ga.Handle {
		return p.NbGetT(o3T, sl(tmp, (tc%2)*tileW), ta, tb, tc, 0)
	}
	h := issue(0)

	// Coefficient rows for the d index; computing them here overlaps
	// tile 0's in-flight get.
	ball := c.bPanel(p, lOff, wl)

	out := p.MustAllocLocal(int64(wab) * int64(c.g.T) * int64(c.g.T))
	wq := newNbQueue(p)
	// Bottom-tested like prefetch2: tile 0's get is already in flight
	// (issued above so it overlaps the coefficient compute), and every
	// path from an issue reaches its Wait.
	for tc := 0; ; tc++ {
		var next *ga.Handle
		if tc+1 < c.nt {
			next = issue(tc + 1)
		}
		h.Wait(p)
		c.emitC(p, &wq, out, cT, true, ta, tb, tc,
			sl(tmp, (tc%2)*tileW), c.g.Width(tc)*wl, wl, ball.Data)
		h = next
		if tc+1 >= c.nt {
			break
		}
	}
	wq.drain()
	p.FreeLocal(out)
	p.FreeLocal(ball)
	p.FreeLocal(tmp)
}
