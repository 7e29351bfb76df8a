package fourindex

import (
	"fourindex/internal/blas"
	"fourindex/internal/ga"
)

// The contraction kernels every schedule shares. The paper's Listings 1,
// 8 and 10 write the same four contraction bodies under different loop
// nests; here the schedules keep their loop nests, work-unit owners and
// tile coordinates, and run op1, op2 and op3 through contract and every
// C tile of op4 through emitC.

// tileAt maps the tile index t that varies along a kernel's loop (the
// contracted index of a gather, the produced index of an emit) to the
// four tile coordinates of the tensor being read or written.
type tileAt func(t int) (int, int, int, int)

// symPaired reports whether a declares dimensions (d, d+1) a symmetric
// pair, so that only tiles with coordinate d >= coordinate d+1 exist.
func symPaired(a *ga.TiledArray, d int) bool {
	for _, pr := range a.SymPairs {
		if pr[0] == d {
			return true
		}
	}
	return false
}

// op1 computes O1[a, j, k, l] = sum_i A[i, j, k, l] B[a, i] for every a
// tile of one j tile of width wj and one (k, l) block of wkl columns. A's
// tile along i is aAt(ti); the O1 tile of ta goes to o1At(ta).
func (c *runCtx) op1(p *ga.Proc, aT, o1T *ga.TiledArray, wj, wkl int, aAt, o1At tileAt) {
	c.contract(p, aT, o1T, 0, 1, wj*wkl, c.nt, aAt, o1At)
}

// op2 computes O2[a, b, k, l] = sum_j O1[a, j, k, l] B[b, j] for one a
// tile ta, every b tile tb <= ta and one (k, l) block of wkl columns.
// O1's tile along j is o1At(tj); the O2 tile of tb goes to o2At(tb).
func (c *runCtx) op2(p *ga.Proc, o1T, o2T *ga.TiledArray, ta, wkl int, o1At, o2At tileAt) {
	c.contract(p, o1T, o2T, 1, c.g.Width(ta), wkl, ta+1, o1At, o2At)
}

// op3 computes O3[(a, b), c, l] = sum_k O2[(a, b), k, l] B[c, k] for one
// (a, b) block of wab rows, every c tile and an l window of wl columns.
// O2's tile along k is o2At(tk); the O3 tile of tc goes to o3At(tc).
func (c *runCtx) op3(p *ga.Proc, o2T, o3T *ga.TiledArray, wab, wl int, o2At, o3At tileAt) {
	c.contract(p, o2T, o3T, 2, wab, wl, c.nt, o2At, o3At)
}

// contract is the body of op1, op2 and op3: gather src's tiles along the
// contracted dimension dim into a packed [rows][n][cols] operand, then
// emit dst's tiles 0..nOut-1 along the produced index.
func (c *runCtx) contract(p *ga.Proc, src, dst *ga.TiledArray, dim, rows, cols, nOut int, srcAt, dstAt tileAt) {
	packed := p.MustAllocLocal(int64(rows) * int64(c.n) * int64(cols))
	c.gather(p, src, packed, dim, rows, cols, srcAt)
	bbuf := p.MustAllocLocal(int64(c.g.T) * int64(c.n))
	out := p.MustAllocLocal(int64(rows) * int64(c.g.T) * int64(cols))
	wq := newNbQueue(p)
	c.emit(p, &wq, bbuf, out, packed.Data, rows, cols, nOut, dst, dstAt)
	wq.drain()
	p.FreeLocal(out)
	p.FreeLocal(bbuf)
	p.FreeLocal(packed)
}

// gather double-buffers src's tiles along dimension dim (tile t is at
// srcAt(t)) into packed[rows][n][cols]. A tile holds [rows][wt][cols] and
// lands at offset t0 of the middle index. When src declares (dim, dim+1)
// a symmetric pair, a tile below the diagonal is read from its stored
// mirror, laid out [rows][wm][wt][cols/wm], and transposed.
func (c *runCtx) gather(p *ga.Proc, src *ga.TiledArray, packed ga.Buffer, dim, rows, cols int, srcAt tileAt) {
	mirror := symPaired(src, dim)
	at := func(t int) (x [4]int, flip bool) {
		x[0], x[1], x[2], x[3] = srcAt(t)
		if mirror && x[dim] < x[dim+1] {
			x[dim], x[dim+1] = x[dim+1], x[dim]
			flip = true
		}
		return x, flip
	}
	tileW := rows * c.g.T * cols
	tmp := p.MustAllocLocal(2 * int64(tileW))
	prefetch2(p, c.nt, func(t int) *ga.Handle {
		x, _ := at(t)
		return p.NbGetT(src, sl(tmp, (t%2)*tileW), x[0], x[1], x[2], x[3])
	}, func(t int) {
		if !c.exec {
			return
		}
		t0, _ := c.g.Bounds(t)
		wt := c.g.Width(t)
		got := tmp.Data[(t%2)*tileW:]
		x, flip := at(t)
		if !flip {
			for r := 0; r < rows; r++ {
				copy(packed.Data[(r*c.n+t0)*cols:(r*c.n+t0+wt)*cols], got[r*wt*cols:(r+1)*wt*cols])
			}
			return
		}
		wm := c.g.Width(x[dim])
		inner := cols / wm
		for r := 0; r < rows; r++ {
			for m := 0; m < wm; m++ {
				for k := 0; k < wt; k++ {
					s := ((r*wm+m)*wt + k) * inner
					d := ((r*c.n+t0+k)*wm + m) * inner
					if inner == 1 { // op3's (k, l) mirror: a call to copy per element costs more than the element
						packed.Data[d] = got[s]
					} else {
						copy(packed.Data[d:d+inner], got[s:s+inner])
					}
				}
			}
		}
	})
	p.FreeLocal(tmp)
}

// emit contracts packed[rows][n][cols] with the B rows of each output
// tile t < nOut: fillBRow, zero, one GEMM per row, then a Put of dst's
// tile dstAt(t) through wq. Cost mode charges the rows GEMMs as one
// ComputeEff. bbuf holds T x n words and out rows x T x cols.
func (c *runCtx) emit(p *ga.Proc, wq *nbQueue, bbuf, out ga.Buffer, packed []float64, rows, cols, nOut int, dst *ga.TiledArray, dstAt tileAt) {
	for t := 0; t < nOut; t++ {
		w := c.fillBRow(p, bbuf.Data, t)
		if c.exec {
			zero(out.Data[:rows*w*cols])
			for r := 0; r < rows; r++ {
				c.gemm(p, false, false, w, cols, c.n,
					bbuf.Data, c.n,
					packed[r*c.n*cols:], cols,
					out.Data[r*w*cols:], cols)
			}
		} else {
			p.ComputeEff(int64(rows)*blas.GemmFlops(w, cols, c.n), c.eff)
		}
		x0, x1, x2, x3 := dstAt(t)
		wq.push(p.NbPutT(dst, out.Data, x0, x1, x2, x3))
	}
}

// emitC writes the C tiles (ta, tb, tc, td) for every td <= tc that C
// stores: C[(a, b), c, d] = sum_l O3[(a, b), c, l] B[d, l], one GEMM per
// (a, b) row against the coefficient panel bT[d][l]. o3 holds the c
// tile's rows for each (a, b) at stride abStride, nl columns each. Each
// tile is put, or accumulated into C when acc is set. Cost mode charges
// the wab GEMMs as one ComputeEff. out holds at least wab x wc x T words.
func (c *runCtx) emitC(p *ga.Proc, wq *nbQueue, out ga.Buffer, cT *ga.TiledArray, acc bool, ta, tb, tc int, o3 []float64, abStride, nl int, bT []float64) {
	wab := c.g.Width(ta) * c.g.Width(tb)
	wc := c.g.Width(tc)
	for td := 0; td <= tc; td++ {
		if !cT.Stored(ta, tb, tc, td) {
			continue // spatial symmetry forbids this block
		}
		d0, _ := c.g.Bounds(td)
		wd := c.g.Width(td)
		if c.exec {
			zero(out.Data[:wab*wc*wd])
			for ab := 0; ab < wab; ab++ {
				c.gemm(p, false, true, wc, wd, nl,
					o3[ab*abStride:], nl,
					bT[d0*nl:], nl,
					out.Data[ab*wc*wd:], wd)
			}
		} else {
			p.ComputeEff(int64(wab)*blas.GemmFlops(wc, wd, nl), c.eff)
		}
		if acc {
			wq.push(p.NbAccT(cT, 1, out.Data, ta, tb, tc, td))
		} else {
			wq.push(p.NbPutT(cT, out.Data, ta, tb, tc, td))
		}
	}
}

// bPanel allocates and fills the n x nl coefficient panel B[d, lOff+l]
// that op4 contracts against, charging its generation. The caller frees
// it.
func (c *runCtx) bPanel(p *ga.Proc, lOff, nl int) ga.Buffer {
	buf := p.MustAllocLocal(int64(c.n) * int64(nl))
	p.Compute(int64(coeffFlops) * int64(c.n) * int64(nl))
	if c.exec {
		for d := 0; d < c.n; d++ {
			copy(buf.Data[d*nl:(d+1)*nl], c.b[d*c.n+lOff:])
		}
	}
	return buf
}

func zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}
