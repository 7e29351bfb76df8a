package fourindex

import (
	"fourindex/internal/blas"
	"fourindex/internal/ga"
)

// runRecompute executes the Listing 3 direct method: nothing but the
// output C lives in global memory. Each process computes whole
// C[(ta,tb), *, *] pair-blocks from scratch, regenerating the atomic
// integrals A on the fly for every block (redundant computation) and
// keeping O1/O2/O3 in slab-sized local buffers. This is the
// minimal-memory, maximal-work end of the paper's design space
// (Section 2.2: "lowest memory requirement ... more time consuming").
//
// The schedule takes no checkpoints: its only global state is C, every
// pair-block is written exactly once with PutT, and there is nothing to
// snapshot that is cheaper than recomputing. A restart after a crash
// simply reruns the single region from scratch, which is idempotent.
func runRecompute(opt Options) (*Result, error) {
	c, err := newRunCtx(opt)
	if err != nil {
		return nil, err
	}
	defer c.beginRoot(Recompute)()
	// The schedule is a single idempotent region with no checkpoints, so
	// its only cancellation boundary is before any work starts.
	if err := c.canceled(); err != nil {
		return nil, err
	}
	c.rt.BeginPhase("recompute-blocks")
	cT, err := c.rt.CreateTiledSparse("C", c.grids4(), [][2]int{{0, 1}, {2, 3}}, opt.Policy, c.cSparsity())
	if err != nil {
		return nil, oomWrap(Recompute, err)
	}
	if err := c.rt.Parallel(func(p *ga.Proc) {
		for ta := 0; ta < c.nt; ta++ {
			for tb := 0; tb <= ta; tb++ {
				if workOwner(p.Procs(), 3, ta, tb) != p.ID() {
					continue
				}
				c.recomputeUnit(p, cT, ta, tb)
			}
		}
	}); err != nil {
		return nil, err
	}
	packed := c.extractC(cT)
	c.rt.DestroyTiled(cT)
	return c.result(Recompute, Recompute, packed), nil
}

// recomputeUnit produces all C tiles of one (ta, tb) pair-block with no
// global reads at all.
func (c *runCtx) recomputeUnit(p *ga.Proc, cT *ga.TiledArray, ta, tb int) {
	n := c.n
	n64 := int64(n)
	wa, wb := c.g.Width(ta), c.g.Width(tb)
	a0, _ := c.g.Bounds(ta)
	b0, _ := c.g.Bounds(tb)
	wab := wa * wb
	sp := c.opt.Spec

	// op1 with on-the-fly integrals: O1[a in ta, j, k, l] — the
	// integrals for the full (i, j, k, l) space are regenerated for
	// every ta block, which is the scheme's redundant work.
	o1loc := p.MustAllocLocal(int64(wa) * n64 * n64 * n64)
	p.Compute(integralFlops * n64 * n64 * n64 * n64)             // regenerate A
	p.Compute(2 * int64(wa) * n64 * n64 * n64 * n64)             // contract over i
	p.Compute(int64(coeffFlops) * (int64(wa) + int64(wb)) * n64) // B rows
	if c.exec {
		ba := c.b[a0*n : (a0+wa)*n]
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				for l := 0; l < n; l++ {
					for i := 0; i < n; i++ {
						v := sp.ComputeA(i, j, k, l)
						if v == 0 {
							continue
						}
						for a := 0; a < wa; a++ {
							o1loc.Data[((a*n+j)*n+k)*n+l] += ba[a*n+i] * v
						}
					}
				}
			}
		}
	}

	// op2: O2[(a,b), k, l] = sum_j O1[a, j, k, l] B[b, j].
	o2loc := p.MustAllocLocal(int64(wab) * n64 * n64)
	p.Compute(2 * int64(wab) * n64 * n64 * n64)
	if c.exec {
		bb := c.b[b0*n : (b0+wb)*n]
		for a := 0; a < wa; a++ {
			for b := 0; b < wb; b++ {
				dst := o2loc.Data[(a*wb+b)*n*n : (a*wb+b+1)*n*n]
				for j := 0; j < n; j++ {
					w := bb[b*n+j]
					if w == 0 {
						continue
					}
					src := o1loc.Data[(a*n+j)*n*n : (a*n+j+1)*n*n]
					for kl := 0; kl < n*n; kl++ {
						dst[kl] += w * src[kl]
					}
				}
			}
		}
	}
	p.FreeLocal(o1loc)

	// op3: O3[(a,b), c, l] = sum_k O2[(a,b), k, l] B[c, k].
	o3loc := p.MustAllocLocal(int64(wab) * n64 * n64)
	bfull := c.bPanel(p, 0, n)
	if c.exec {
		for ab := 0; ab < wab; ab++ {
			c.gemm(p, false, false, n, n, n,
				bfull.Data, n,
				o2loc.Data[ab*n*n:], n,
				o3loc.Data[ab*n*n:], n)
		}
	} else {
		p.ComputeEff(int64(wab)*blas.GemmFlops(n, n, n), c.eff)
	}
	p.FreeLocal(o2loc)

	// op4: C[(a,b), c>=d] = O3[(a,b), c, l] . B[d, l]^T, then Put. The
	// writes ride the nonblocking window so each tile's transfer overlaps
	// the next tile's GEMM.
	out := p.MustAllocLocal(int64(wab) * int64(c.g.T) * int64(c.g.T))
	wq := newNbQueue(p)
	for tc := 0; tc < c.nt; tc++ {
		c0, _ := c.g.Bounds(tc)
		c.emitC(p, &wq, out, cT, false, ta, tb, tc, sl(o3loc, c0*n), n*n, n, bfull.Data)
	}
	wq.drain()
	p.FreeLocal(out)
	p.FreeLocal(bfull)
	p.FreeLocal(o3loc)
}
