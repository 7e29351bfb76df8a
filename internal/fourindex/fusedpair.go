package fourindex

import (
	"fourindex/internal/blas"
	"fourindex/internal/faults"
	"fourindex/internal/ga"
)

// runFusedPair executes op12/34 at full problem size (Listings 2 and 9):
// the first two contractions are fused over (k, l) — O1 lives only in a
// process-local buffer — and the last two are fused over (a, b) — O3
// lives only locally. Peak aggregate memory is |A| + |O2| ~ n^4/2, and
// the global<->local traffic is the Theorem 5.2 optimal
// |A| + 2|O2| + |C| (up to A's symmetric double reads).
//
// Following Section 7.3, work units are (tk, tl) tile pairs for op12 and
// (ta, tb) for op34: all alpha/beta values for a given (k, l) are
// computed by the same process, so O1 and O3 never touch global memory.
func runFusedPair(opt Options) (*Result, error) {
	c, err := newRunCtx(opt)
	if err != nil {
		return nil, err
	}
	defer c.beginRoot(Fused1234Pair)()
	g4 := c.grids4()
	pairs := triPairs(c.nt)

	// Single stage checkpoint: once the fused op12 pass has produced the
	// full O2, a restart recreates O2 from the snapshot and runs only the
	// fused op34 pass (idempotent PutT writes into C).
	ckptKey := Fused1234Pair.String()
	rec, resumed := c.ckptResume(ckptKey)
	var o2T *ga.TiledArray
	if resumed {
		if o2T, err = c.rt.CreateTiled("O2", g4, [][2]int{{0, 1}, {2, 3}}, opt.Policy); err != nil {
			return nil, oomWrap(Fused1234Pair, err)
		}
		o2T.RestoreTiles(rec.State["O2"])
		o2T.Freeze()
		c.ckptRestore(rec, "op34-fused")
	} else {
		c.rt.BeginPhase("generate-A")
		aT, err := c.rt.CreateTiled("A", g4, [][2]int{{0, 1}, {2, 3}}, opt.Policy)
		if err != nil {
			return nil, oomWrap(Fused1234Pair, err)
		}
		if err := c.generateA(aT, 0); err != nil {
			return nil, err
		}

		c.rt.BeginPhase("op12-fused")
		if o2T, err = c.rt.CreateTiled("O2", g4, [][2]int{{0, 1}, {2, 3}}, opt.Policy); err != nil {
			return nil, oomWrap(Fused1234Pair, err)
		}
		if err := c.rt.Parallel(func(p *ga.Proc) {
			for tk := 0; tk < c.nt; tk++ {
				for tl := 0; tl <= tk; tl++ {
					if workOwner(p.Procs(), 12, tk, tl) != p.ID() {
						continue
					}
					c.op12Unit(p, aT, o2T, pairs, tk, tl, 0, c.nt)
				}
			}
		}); err != nil {
			return nil, err
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
		// O2 is complete: the op34 pass only reads it.
		o2T.Freeze()
	}

	// Cancellation boundary: the op12 stage above is checkpointed, so a
	// canceled run resumes directly into the op34 pass.
	if err := c.canceled(); err != nil {
		return nil, err
	}
	c.rt.BeginPhase("op34-fused")
	cT, err := c.rt.CreateTiledSparse("C", g4, [][2]int{{0, 1}, {2, 3}}, opt.Policy, c.cSparsity())
	if err != nil {
		return nil, oomWrap(Fused1234Pair, err)
	}
	if err := c.rt.Parallel(func(p *ga.Proc) {
		for ta := 0; ta < c.nt; ta++ {
			for tb := 0; tb <= ta; tb++ {
				if workOwner(p.Procs(), 34, ta, tb) != p.ID() {
					continue
				}
				c.op34Unit(p, o2T, cT, pairs, ta, tb, 0, false)
			}
		}
	}); err != nil {
		return nil, err
	}
	c.rt.DestroyTiled(o2T)
	c.ckptDrop(ckptKey)

	packed := c.extractC(cT)
	c.rt.DestroyTiled(cT)
	return c.result(Fused1234Pair, Fused1234Pair, packed), nil
}

// op12Unit computes O2[ta, tb<=ta, tk, lCoord] for every pair with ta in
// [ta0, ta1), fusing op1 and op2 through a process-local O1 buffer. It
// serves both the full-size op12/34 schedule (lCoord is a tile of the
// orbital grid) and the Listing 10 inner fusion (aT and o2T carry a
// single slab tile in the l dimension: lCoord = 0); the l width is that
// of aT's lCoord tile. pairs lists the canonical (ti >= tj) tile pairs.
//
// aT is laid out (i, j, k, l) with symmetric (i, j). The alpha
// restriction [ta0, ta1) implements Section 7.3's alpha-parallelisation:
// splitting one (k, l) unit over several processes multiplies A reads
// but shortens the critical path.
func (c *runCtx) op12Unit(p *ga.Proc, aT, o2T *ga.TiledArray, pairs [][2]int, tk, lCoord, ta0, ta1 int) {
	wkl := c.g.Width(tk) * aT.Grids[3].Width(lCoord)

	// Gather the full A[., ., k in tk, l window] column block once:
	// each canonical (ti >= tj) tile is read a single time and
	// mirrored locally, so A moves |A| elements per chunk (the
	// Section 7.2 accounting), not 2|A|.
	afull := p.MustAllocLocal(int64(c.n) * int64(c.n) * int64(wkl))
	tileW := c.g.T * c.g.T * wkl
	tmp := p.MustAllocLocal(2 * int64(tileW))
	prefetch2(p, len(pairs), func(t int) *ga.Handle {
		return p.NbGetT(aT, sl(tmp, (t%2)*tileW), pairs[t][0], pairs[t][1], tk, lCoord)
	}, func(t int) {
		if !c.exec {
			return
		}
		ti, tj := pairs[t][0], pairs[t][1]
		i0, _ := c.g.Bounds(ti)
		wi := c.g.Width(ti)
		j0, _ := c.g.Bounds(tj)
		wj := c.g.Width(tj)
		got := tmp.Data[(t%2)*tileW:]
		for i := 0; i < wi; i++ {
			for j := 0; j < wj; j++ {
				src := got[(i*wj+j)*wkl : (i*wj+j+1)*wkl]
				dst := afull.Data[((i0+i)*c.n+(j0+j))*wkl : ((i0+i)*c.n+(j0+j)+1)*wkl]
				copy(dst, src)
				if ti != tj {
					mir := afull.Data[((j0+j)*c.n+(i0+i))*wkl : ((j0+j)*c.n+(i0+i)+1)*wkl]
					copy(mir, src)
				}
			}
		}
	})
	p.FreeLocal(tmp)

	// op1: O1[a, j, kl] = B[a, i] . A[i, (j, kl)] — one GEMM over the
	// whole (j, kl) column space per a tile.
	a0, _ := c.g.Bounds(ta0)
	_, a1 := c.g.Bounds(ta1 - 1)
	na := a1 - a0
	o1loc := p.MustAllocLocal(int64(na) * int64(c.n) * int64(wkl))
	bbuf := p.MustAllocLocal(int64(c.g.T) * int64(c.n))
	rest := c.n * wkl
	for ta := ta0; ta < ta1; ta++ {
		wa := c.fillBRow(p, bbuf.Data, ta)
		taOff, _ := c.g.Bounds(ta)
		c.gemm(p, false, false, wa, rest, c.n,
			bbuf.Data, c.n,
			afull.Data, rest,
			sl(o1loc, (taOff-a0)*rest), rest)
	}
	p.FreeLocal(afull)

	// op2: O2[a>=b, kl] = sum_j O1[a, j, kl] B[b, j].
	out := p.MustAllocLocal(int64(c.g.T) * int64(c.g.T) * int64(wkl))
	wq := newNbQueue(p)
	for ta := ta0; ta < ta1; ta++ {
		taOff, _ := c.g.Bounds(ta)
		c.emit(p, &wq, bbuf, out, sl(o1loc, (taOff-a0)*rest), c.g.Width(ta), wkl, ta+1,
			o2T, func(tb int) (int, int, int, int) { return ta, tb, tk, lCoord })
	}
	wq.drain()
	p.FreeLocal(out)
	p.FreeLocal(bbuf)
	p.FreeLocal(o1loc)
}

// op34Unit computes the C[(ta, tb), c>=d] tiles from O2[(ta, tb), k, l],
// fusing op3 and op4 through a process-local O3 buffer. o2T spans an l
// window of nl = o2T.Grids[3].N orbitals starting at lOff.
//
// When o2T declares (k, l) symmetric it spans the full l range and only
// its canonical (tk >= tl) tiles, listed in pairs, are read and mirrored
// locally. Otherwise it carries a single l slab tile (coordinate 0).
// With acc set, the partial contribution of the window is accumulated
// into C with AccT; otherwise the tiles overwrite C with PutT.
func (c *runCtx) op34Unit(p *ga.Proc, o2T, cT *ga.TiledArray, pairs [][2]int, ta, tb, lOff int, acc bool) {
	wa, wb := c.g.Width(ta), c.g.Width(tb)
	wab := wa * wb
	nl := o2T.Grids[3].N

	// o2loc[(a,b)][k][l]: the full k x l window per (a, b).
	o2loc := p.MustAllocLocal(int64(wab) * int64(c.n) * int64(nl))
	tileW := wab * c.g.T * max(c.g.T, nl)
	tmp := p.MustAllocLocal(2 * int64(tileW))
	if symPaired(o2T, 2) {
		// Canonical (tk >= tl) tiles; fill (k,l) and mirror (l,k).
		prefetch2(p, len(pairs), func(t int) *ga.Handle {
			return p.NbGetT(o2T, sl(tmp, (t%2)*tileW), ta, tb, pairs[t][0], pairs[t][1])
		}, func(t int) {
			if !c.exec {
				return
			}
			tk, tl := pairs[t][0], pairs[t][1]
			k0, _ := c.g.Bounds(tk)
			wk := c.g.Width(tk)
			l0, _ := c.g.Bounds(tl)
			wl := c.g.Width(tl)
			got := tmp.Data[(t%2)*tileW:]
			for ab := 0; ab < wab; ab++ {
				base := ab * c.n * c.n
				for k := 0; k < wk; k++ {
					for l := 0; l < wl; l++ {
						v := got[(ab*wk+k)*wl+l]
						o2loc.Data[base+(k0+k)*c.n+(l0+l)] = v
						o2loc.Data[base+(l0+l)*c.n+(k0+k)] = v
					}
				}
			}
		})
	} else {
		prefetch2(p, c.nt, func(tk int) *ga.Handle {
			return p.NbGetT(o2T, sl(tmp, (tk%2)*tileW), ta, tb, tk, 0)
		}, func(tk int) {
			if !c.exec {
				return
			}
			row, _ := c.g.Bounds(tk)
			wk := c.g.Width(tk)
			got := tmp.Data[(tk%2)*tileW:]
			for ab := 0; ab < wab; ab++ { // tile (a, b, k, l-slab)
				src := got[ab*wk*nl : (ab+1)*wk*nl]
				dst := o2loc.Data[(ab*c.n+row)*nl : (ab*c.n+row+wk)*nl]
				copy(dst, src)
			}
		})
	}
	p.FreeLocal(tmp)

	// op3: O3[(a,b), c, l] = B[c, k] . O2[(a,b), k, l].
	o3loc := p.MustAllocLocal(int64(wab) * int64(c.n) * int64(nl))
	bbuf := p.MustAllocLocal(int64(c.g.T) * int64(c.n))
	for tc := 0; tc < c.nt; tc++ {
		wc := c.fillBRow(p, bbuf.Data, tc)
		c0, _ := c.g.Bounds(tc)
		if c.exec {
			for ab := 0; ab < wab; ab++ {
				c.gemm(p, false, false, wc, nl, c.n,
					bbuf.Data, c.n,
					o2loc.Data[ab*c.n*nl:], nl,
					o3loc.Data[(ab*c.n+c0)*nl:], nl)
			}
		} else {
			p.ComputeEff(int64(wab)*blas.GemmFlops(wc, nl, c.n), c.eff)
		}
	}
	p.FreeLocal(o2loc)

	// op4: C[(a,b), c>=d] (+)= O3[(a,b), c, l] . B[d, lOff+l]^T.
	ball := c.bPanel(p, lOff, nl)
	out := p.MustAllocLocal(int64(wab) * int64(c.g.T) * int64(c.g.T))
	wq := newNbQueue(p)
	for tc := 0; tc < c.nt; tc++ {
		c0, _ := c.g.Bounds(tc)
		c.emitC(p, &wq, out, cT, acc, ta, tb, tc, sl(o3loc, c0*nl), c.n*nl, nl, ball.Data)
	}
	wq.drain()
	p.FreeLocal(out)
	p.FreeLocal(ball)
	p.FreeLocal(bbuf)
	p.FreeLocal(o3loc)
}
