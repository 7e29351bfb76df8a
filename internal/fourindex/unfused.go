package fourindex

import (
	"fmt"

	"fourindex/internal/faults"
	"fourindex/internal/ga"
)

// runUnfused executes the Listing 1/4 baseline: four separate tiled
// contractions with fully materialised intermediates. Peak aggregate
// memory is max(|A|+|O1|, |O1|+|O2|, |O2|+|O3|, |O3|+|C|) ~ 3n^4/4.
//
// The schedule has no l-slab structure, so its checkpoints are per
// stage: completing op1/op2/op3 records Progress 1/2/3 with a snapshot
// of that stage's output intermediate, and a restart resumes at the
// first incomplete contraction. op4 writes C with idempotent PutT and
// simply re-runs.
func runUnfused(opt Options) (*Result, error) {
	c, err := newRunCtx(opt)
	if err != nil {
		return nil, err
	}
	defer c.beginRoot(Unfused)()
	g4 := c.grids4()

	ckptKey := Unfused.String()
	stage := 0
	rec, resumed := c.ckptResume(ckptKey)
	if resumed && rec.Progress >= 1 && rec.Progress <= 3 {
		stage = rec.Progress
	}
	stageSave := func(progress int, name string, t *ga.TiledArray) {
		if c.ckpt() == nil {
			return
		}
		c.ckptSave(faults.Record{
			Scheme:   ckptKey,
			Progress: progress,
			Words:    t.Bytes() / 8,
			State:    map[string][]float64{name: t.SnapshotTiles()},
		})
	}

	// Cancellation boundaries sit between the contraction stages — the
	// same places the stage checkpoints live, so a canceled run resumes
	// at the first stage it did not complete.
	var o1T, o2T, o3T *ga.TiledArray
	if err := c.canceled(); err != nil {
		return nil, err
	}
	if stage < 1 {
		c.rt.BeginPhase("generate-A")
		aT, err := c.rt.CreateTiled("A", g4, [][2]int{{0, 1}, {2, 3}}, opt.Policy)
		if err != nil {
			return nil, oomWrap(Unfused, err)
		}
		if err := c.generateA(aT, 0); err != nil {
			return nil, err
		}

		c.rt.BeginPhase("op1")
		if o1T, err = c.rt.CreateTiled("O1", g4, [][2]int{{2, 3}}, opt.Policy); err != nil {
			return nil, oomWrap(Unfused, err)
		}
		if err := c.rt.Parallel(func(p *ga.Proc) { c.op1Unfused(p, aT, o1T) }); err != nil {
			return nil, err
		}
		c.rt.DestroyTiled(aT)
		stageSave(1, "O1", o1T)
		o1T.Freeze()
	} else if stage == 1 {
		if o1T, err = c.rt.CreateTiled("O1", g4, [][2]int{{2, 3}}, opt.Policy); err != nil {
			return nil, oomWrap(Unfused, err)
		}
		o1T.RestoreTiles(rec.State["O1"])
		o1T.Freeze()
		c.ckptRestore(rec, fmt.Sprintf("stage %d", stage+1))
	}

	if err := c.canceled(); err != nil {
		return nil, err
	}
	if stage < 2 {
		c.rt.BeginPhase("op2")
		if o2T, err = c.rt.CreateTiled("O2", g4, [][2]int{{0, 1}, {2, 3}}, opt.Policy); err != nil {
			return nil, oomWrap(Unfused, err)
		}
		if err := c.rt.Parallel(func(p *ga.Proc) { c.op2Unfused(p, o1T, o2T) }); err != nil {
			return nil, err
		}
		c.rt.DestroyTiled(o1T)
		stageSave(2, "O2", o2T)
		o2T.Freeze()
	} else if stage == 2 {
		if o2T, err = c.rt.CreateTiled("O2", g4, [][2]int{{0, 1}, {2, 3}}, opt.Policy); err != nil {
			return nil, oomWrap(Unfused, err)
		}
		o2T.RestoreTiles(rec.State["O2"])
		o2T.Freeze()
		c.ckptRestore(rec, fmt.Sprintf("stage %d", stage+1))
	}

	if err := c.canceled(); err != nil {
		return nil, err
	}
	if stage < 3 {
		c.rt.BeginPhase("op3")
		if o3T, err = c.rt.CreateTiled("O3", g4, [][2]int{{0, 1}}, opt.Policy); err != nil {
			return nil, oomWrap(Unfused, err)
		}
		if err := c.rt.Parallel(func(p *ga.Proc) { c.op3Unfused(p, o2T, o3T) }); err != nil {
			return nil, err
		}
		c.rt.DestroyTiled(o2T)
		stageSave(3, "O3", o3T)
		o3T.Freeze()
	} else {
		if o3T, err = c.rt.CreateTiled("O3", g4, [][2]int{{0, 1}}, opt.Policy); err != nil {
			return nil, oomWrap(Unfused, err)
		}
		o3T.RestoreTiles(rec.State["O3"])
		o3T.Freeze()
		c.ckptRestore(rec, fmt.Sprintf("stage %d", stage+1))
	}

	if err := c.canceled(); err != nil {
		return nil, err
	}
	c.rt.BeginPhase("op4")
	cT, err := c.rt.CreateTiledSparse("C", g4, [][2]int{{0, 1}, {2, 3}}, opt.Policy, c.cSparsity())
	if err != nil {
		return nil, oomWrap(Unfused, err)
	}
	if err := c.rt.Parallel(func(p *ga.Proc) { c.op4Unfused(p, o3T, cT) }); err != nil {
		return nil, err
	}
	c.rt.DestroyTiled(o3T)
	c.ckptDrop(ckptKey)

	packed := c.extractC(cT)
	c.rt.DestroyTiled(cT)
	return c.result(Unfused, Unfused, packed), nil
}

// op1Unfused computes O1[a, j, k>=l] = sum_i A[ij, kl] B[a, i]. Work
// units are (tj, tk, tl); the owner produces all a tiles, reading A's
// column block once per unit.
func (c *runCtx) op1Unfused(p *ga.Proc, aT, o1T *ga.TiledArray) {
	for tj := 0; tj < c.nt; tj++ {
		for tk := 0; tk < c.nt; tk++ {
			for tl := 0; tl <= tk; tl++ {
				if workOwner(p.Procs(), 1, tj, tk, tl) != p.ID() {
					continue
				}
				c.op1(p, aT, o1T, c.g.Width(tj), c.g.Width(tk)*c.g.Width(tl),
					func(ti int) (int, int, int, int) { return ti, tj, tk, tl },
					func(ta int) (int, int, int, int) { return ta, tj, tk, tl })
			}
		}
	}
}

// op2Unfused computes O2[a>=b, k>=l] = sum_j O1[a, j, kl] B[b, j]. Work
// units are (ta, tk, tl); the owner produces all b <= a tiles.
func (c *runCtx) op2Unfused(p *ga.Proc, o1T, o2T *ga.TiledArray) {
	for ta := 0; ta < c.nt; ta++ {
		for tk := 0; tk < c.nt; tk++ {
			for tl := 0; tl <= tk; tl++ {
				if workOwner(p.Procs(), 2, ta, tk, tl) != p.ID() {
					continue
				}
				c.op2(p, o1T, o2T, ta, c.g.Width(tk)*c.g.Width(tl),
					func(tj int) (int, int, int, int) { return ta, tj, tk, tl },
					func(tb int) (int, int, int, int) { return ta, tb, tk, tl })
			}
		}
	}
}

// op3Unfused computes O3[a>=b, c, l] = sum_k O2[ab, kl] B[c, k]. Work
// units are (ta, tb, tl); the owner produces all c tiles.
func (c *runCtx) op3Unfused(p *ga.Proc, o2T, o3T *ga.TiledArray) {
	for ta := 0; ta < c.nt; ta++ {
		for tb := 0; tb <= ta; tb++ {
			for tl := 0; tl < c.nt; tl++ {
				if workOwner(p.Procs(), 3, ta, tb, tl) != p.ID() {
					continue
				}
				c.op3(p, o2T, o3T, c.g.Width(ta)*c.g.Width(tb), c.g.Width(tl),
					func(tk int) (int, int, int, int) { return ta, tb, tk, tl },
					func(tc int) (int, int, int, int) { return ta, tb, tc, tl })
			}
		}
	}
}

// op4Unfused computes C[a>=b, c>=d] = sum_l O3[ab, c, l] B[d, l]. Work
// units are (ta, tb); the owner produces all c >= d tiles.
func (c *runCtx) op4Unfused(p *ga.Proc, o3T, cT *ga.TiledArray) {
	// The handles of two c strips, reused by every unit.
	hs := make([]*ga.Handle, 2*c.nt)
	for ta := 0; ta < c.nt; ta++ {
		for tb := 0; tb <= ta; tb++ {
			if workOwner(p.Procs(), 4, ta, tb) != p.ID() {
				continue
			}
			c.op4Unit(p, o3T, cT, ta, tb, hs)
		}
	}
}

// op4Unit produces the stored C[(ta, tb), tc, td<=tc] tiles of one
// (ta, tb) unit from the full O3. strips holds 2*nt handles: strip tc's
// gets go in half tc%2.
func (c *runCtx) op4Unit(p *ga.Proc, o3T, cT *ga.TiledArray, ta, tb int, strips []*ga.Handle) {
	wa, wb := c.g.Width(ta), c.g.Width(tb)
	wab := wa * wb

	// Rather than materialising the full o3big[(a,b)][c][l] plane, gather
	// one c-tile strip [(a,b)][c in tile tc][l] at a time, double-buffered
	// so the gets for strip tc+1 are in flight while strip tc's GEMMs run.
	// Each strip packs its l tiles contiguously (row stride c.n), so the
	// GEMM operands carry exactly the values the full plane held.
	stripW := wab * c.g.T * c.n
	tileW := wab * c.g.T * c.g.T
	o3s := p.MustAllocLocal(2 * int64(stripW))
	tmp := p.MustAllocLocal(2 * int64(c.nt) * int64(tileW))

	issueStrip := func(tc int) []*ga.Handle {
		hs := strips[(tc%2)*c.nt : (tc%2+1)*c.nt]
		base := (tc % 2) * c.nt * tileW
		for tl := 0; tl < c.nt; tl++ {
			hs[tl] = p.NbGetT(o3T, sl(tmp, base+tl*tileW), ta, tb, tc, tl)
		}
		return hs
	}
	landStrip := func(tc int, hs []*ga.Handle) {
		p.WaitAll(hs...)
		if !c.exec {
			return
		}
		wc := c.g.Width(tc)
		strip := o3s.Data[(tc%2)*stripW:]
		base := (tc % 2) * c.nt * tileW
		for tl := 0; tl < c.nt; tl++ {
			l0, _ := c.g.Bounds(tl)
			wl := c.g.Width(tl)
			got := tmp.Data[base+tl*tileW:]
			for ab := 0; ab < wab; ab++ { // tile (a, b, c, l)
				for cc := 0; cc < wc; cc++ {
					src := got[(ab*wc+cc)*wl : (ab*wc+cc+1)*wl]
					dst := strip[(ab*wc+cc)*c.n+l0:]
					copy(dst[:wl], src)
				}
			}
		}
	}
	hs := issueStrip(0)

	// Full coefficient matrix rows for the d index, one tile at a time;
	// generating them here overlaps strip 0's in-flight gets.
	ball := p.MustAllocLocal(int64(c.n) * int64(c.n))
	for td := 0; td < c.nt; td++ {
		d0, _ := c.g.Bounds(td)
		c.fillBRow(p, sl(ball, d0*c.n), td)
	}

	out := p.MustAllocLocal(int64(wab) * int64(c.g.T) * int64(c.g.T))
	wq := newNbQueue(p)
	for tc := 0; tc < c.nt; tc++ {
		var next []*ga.Handle
		if tc+1 < c.nt {
			next = issueStrip(tc + 1)
		}
		landStrip(tc, hs)
		hs = next
		// C[ab, c, d] = O3[ab, c, l] . B[d, l]^T over the landed strip.
		c.emitC(p, &wq, out, cT, false, ta, tb, tc,
			sl(o3s, (tc%2)*stripW), c.g.Width(tc)*c.n, c.n, ball.Data)
	}
	wq.drain()
	p.FreeLocal(out)
	p.FreeLocal(ball)
	p.FreeLocal(tmp)
	p.FreeLocal(o3s)
}
