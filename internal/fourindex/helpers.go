package fourindex

import (
	"fmt"

	"fourindex/internal/blas"
	"fourindex/internal/faults"
	"fourindex/internal/ga"
	"fourindex/internal/sym"
	"fourindex/internal/tile"
)

// runCtx carries the shared state of one transform run.
type runCtx struct {
	opt  Options
	n    int
	g    tile.Grid // orbital-dimension data-tile grid
	nt   int       // tiles per orbital dimension
	gl   tile.Grid // fused outer-loop grid over l
	rt   *ga.Runtime
	exec bool
	// eff is the contraction-kernel efficiency used for simulated
	// time (1.0 for this paper's batched-GEMM implementations; lower
	// for the NWChem baseline whose Listing 4 structure issues one
	// DGEMM per row).
	eff float64
	// b is the N x N coefficient matrix B[a*n+i], built once per
	// Execute run; nil in Cost mode, which never reads B.
	b []float64
}

func newRunCtx(opt Options) (*runCtx, error) {
	rt, err := ga.NewRuntime(ga.Config{
		Procs:             opt.Procs,
		Mode:              opt.Mode,
		Run:               opt.Run,
		GlobalMemBytes:    opt.GlobalMemBytes,
		LocalMemBytes:     opt.LocalMemBytes,
		Strict:            opt.Strict,
		AllowSpill:        opt.AllowSpill,
		Overlap:           opt.Overlap,
		OverlapEfficiency: opt.OverlapEfficiency,
		Tracer:            opt.Trace,
		Faults:            opt.Faults.ActivePlan(),
	})
	if err != nil {
		return nil, err
	}
	g := tile.NewGrid(opt.Spec.N, opt.TileN)
	c := &runCtx{
		opt:  opt,
		n:    opt.Spec.N,
		g:    g,
		nt:   g.NumTiles(),
		gl:   tile.NewGrid(opt.Spec.N, opt.TileL),
		rt:   rt,
		exec: opt.Mode == ga.Execute,
		eff:  1,
	}
	if c.exec {
		c.b = opt.Spec.BMatrix()
	}
	return c, nil
}

// grids4 returns four copies of the orbital grid.
func (c *runCtx) grids4() []tile.Grid { return []tile.Grid{c.g, c.g, c.g, c.g} }

// beginRoot opens the schedule's root trace span (depth 0, named after
// the scheme) and returns the closer, meant to be deferred: it first
// closes any phase span still open (error paths return mid-phase), then
// the root span, so the tracer's span stack stays balanced even when a
// hybrid driver runs several schedules against one tracer.
func (c *runCtx) beginRoot(scheme Scheme) func() {
	c.rt.TraceSpan(scheme.String())
	return func() {
		c.rt.EndPhase()
		c.rt.TraceSpanEnd()
	}
}

// workOwner deterministically assigns a work unit identified by coords to
// a process (FNV-1a over the coordinates).
func workOwner(procs int, coords ...int) int {
	h := uint64(1469598103934665603)
	for _, c := range coords {
		h ^= uint64(uint32(c))
		h *= 1099511628211
	}
	return int(h % uint64(procs))
}

// fillBRow fills buf (row-major wa x n) with B[a, i] for a in tile ta and
// ALL i, charging generation flops.
func (c *runCtx) fillBRow(p *ga.Proc, buf []float64, ta int) (wa int) {
	a0, a1 := c.g.Bounds(ta)
	wa = a1 - a0
	p.Compute(int64(coeffFlops) * int64(wa) * int64(c.n))
	if c.exec {
		copy(buf[:wa*c.n], c.b[a0*c.n:a1*c.n])
	}
	return wa
}

// generateA fills a distributed A tensor (dims i,j,k,l; symmetric pairs
// (0,1) and (2,3); the l dimension may be a slab grid) with on-the-fly
// integrals: each process fills and Puts the tiles it owns, visiting
// only those. lOff shifts the l tile indices into absolute orbital
// indices (used by per-slab A tensors whose l grid covers
// [lOff, lOff+wl)). The generated tensor is frozen: every schedule only
// reads A after generation, so subsequent GetT traffic takes the
// lock-free read path.
func (c *runCtx) generateA(aT *ga.TiledArray, lOff int) error {
	err := c.rt.Parallel(func(p *ga.Proc) {
		wq := newNbQueue(p)
		aT.ForEachOwnedTile(p.ID(), func(coords []int) {
			words := int64(aT.TileWords(coords))
			buf := p.MustAllocLocal(words)
			p.Compute(integralFlops * words)
			if c.exec {
				c.fillATile(aT, buf.Data, coords, lOff)
			}
			// NbPutT stages the payload at issue, so buf is free to go
			// while the write is still in flight.
			wq.push(p.NbPutT(aT, buf.Data, coords...))
			p.FreeLocal(buf)
		})
		wq.drain()
	})
	if err != nil {
		return err
	}
	aT.Freeze()
	return nil
}

// generateABatch fills several slab tensors in one parallel region so
// that integral generation for concurrently processed l slabs overlaps.
// Like generateA it freezes the generated tensors.
func (c *runCtx) generateABatch(aTs []*ga.TiledArray, lOffs []int) error {
	err := c.rt.Parallel(func(p *ga.Proc) {
		wq := newNbQueue(p)
		for i, aT := range aTs {
			lOff := lOffs[i]
			aT.ForEachOwnedTile(p.ID(), func(coords []int) {
				words := int64(aT.TileWords(coords))
				buf := p.MustAllocLocal(words)
				p.Compute(integralFlops * words)
				if c.exec {
					c.fillATile(aT, buf.Data, coords, lOff)
				}
				wq.push(p.NbPutT(aT, buf.Data, coords...))
				p.FreeLocal(buf)
			})
		}
		wq.drain()
	})
	if err != nil {
		return err
	}
	for _, aT := range aTs {
		aT.Freeze()
	}
	return nil
}

// fillATile evaluates integrals for one tile (Execute mode).
func (c *runCtx) fillATile(aT *ga.TiledArray, buf []float64, coords []int, lOff int) {
	i0, i1 := aT.Grids[0].Bounds(coords[0])
	j0, j1 := aT.Grids[1].Bounds(coords[1])
	k0, k1 := aT.Grids[2].Bounds(coords[2])
	l0, l1 := aT.Grids[3].Bounds(coords[3])
	pos := 0
	for i := i0; i < i1; i++ {
		for j := j0; j < j1; j++ {
			for k := k0; k < k1; k++ {
				for l := l0; l < l1; l++ {
					buf[pos] = c.opt.Spec.ComputeA(i, j, k, lOff+l)
					pos++
				}
			}
		}
	}
}

// extractC reads a distributed C tensor (dims a,b,c,d with symmetric
// pairs (0,1),(2,3)) into a packed container. Execute mode only.
func (c *runCtx) extractC(cT *ga.TiledArray) *sym.PackedC {
	if !c.exec {
		return nil
	}
	out := sym.NewPackedC(c.n)
	buf := make([]float64, c.g.T*c.g.T*c.g.T*c.g.T)
	var cc [4]int
	cT.ForEachTile(func(coords []int) {
		copy(cc[:], coords)
		cT.ReadTileInto(buf, cc[:]...)
		a0, a1 := c.g.Bounds(cc[0])
		b0, b1 := c.g.Bounds(cc[1])
		g0, g1 := c.g.Bounds(cc[2])
		d0, d1 := c.g.Bounds(cc[3])
		wb, wg, wd := b1-b0, g1-g0, d1-d0
		for a := a0; a < a1; a++ {
			for b := b0; b < b1; b++ {
				if b > a {
					continue
				}
				for g := g0; g < g1; g++ {
					for d := d0; d < d1; d++ {
						if d > g {
							continue
						}
						v := buf[(((a-a0)*wb+(b-b0))*wg+(g-g0))*wd+(d-d0)]
						out.Add(v, a, b, g, d)
					}
				}
			}
		}
	})
	return out
}

// result assembles the Result from the runtime's counters.
func (c *runCtx) result(scheme, chosen Scheme, packed *sym.PackedC) *Result {
	return &Result{
		Scheme:             scheme,
		C:                  packed,
		ElapsedSeconds:     c.rt.Elapsed(),
		Totals:             c.rt.Totals(),
		CommVolume:         c.rt.CommVolume(),
		IntraVolume:        c.rt.IntraVolume(),
		DiskVolume:         c.rt.DiskVolume(),
		PeakGlobalBytes:    c.rt.PeakGlobalBytes(),
		ChosenScheme:       chosen,
		Phases:             c.rt.Phases(),
		IdleFraction:       c.rt.IdleFraction(),
		ExposedCommSeconds: c.rt.CommExposedSeconds(),
		OverlapCommSeconds: c.rt.CommOverlapSeconds(),
	}
}

// cSparsity returns the spatial-symmetry tile filter for the output
// tensor C, or nil when the spec carries no spatial symmetry. A tile is
// stored iff some (a, b, c, d) combination of the irreps present in its
// index ranges multiplies to the totally symmetric irrep (XOR zero in the
// abelian Z2^k model). With irrep-blocked orbital ordering this drops a
// fraction ~(1 - 1/s) of C's tiles (Table 1).
func (c *runCtx) cSparsity() func(coords []int) bool {
	sp := c.opt.Spec
	if sp.S <= 1 {
		return nil
	}
	// Irreps present in each orbital tile (blocked ordering makes
	// these short contiguous runs).
	irreps := make([][]int, c.nt)
	for t := 0; t < c.nt; t++ {
		lo, hi := c.g.Bounds(t)
		var set []int
		last := -1
		for p := lo; p < hi; p++ {
			if ir := sp.Irrep(p); ir != last {
				set = append(set, ir)
				last = ir
			}
		}
		irreps[t] = set
	}
	return func(coords []int) bool {
		for _, x := range irreps[coords[0]] {
			for _, y := range irreps[coords[1]] {
				for _, z := range irreps[coords[2]] {
					for _, w := range irreps[coords[3]] {
						if x^y^z^w == 0 {
							return true
						}
					}
				}
			}
		}
		return false
	}
}

// sl offsets into a local buffer, tolerating the nil backing of Cost
// mode (where only shapes matter).
func sl(b ga.Buffer, off int) []float64 {
	if b.Data == nil {
		return nil
	}
	return b.Data[off:]
}

// gemm wraps blas.Dgemm for Execute mode and charges flops in both
// modes: out(mxn) += a(mxk) . b(kxn), row-major with explicit strides.
func (c *runCtx) gemm(p *ga.Proc, transA, transB bool, m, n, k int, a []float64, lda int, b []float64, ldb int, out []float64, ldc int) {
	p.ComputeEff(blas.GemmFlops(m, n, k), c.eff)
	if !c.exec {
		return
	}
	blas.Dgemm(transA, transB, m, n, k, 1, a, lda, b, ldb, 1, out, ldc)
}

// Nonblocking pipeline helpers. Every schedule routes its tile traffic
// through these two shapes so the double-buffered discipline is uniform:
// gathers prefetch the next tile before consuming the current one, and
// writes ride a bounded in-flight window drained before the region's
// barrier. With Options.Overlap off the nonblocking verbs degrade to
// blocking at issue, so these helpers cost nothing on the default path.

// prefetch2 runs a double-buffered gather of n nonblocking fetches: the
// fetch for slot t+1 is issued before slot t's handle is waited, so
// slot t's in-flight transfer (and, in Execute mode, its deferred copy)
// overlaps its neighbour's issue and consumption. issue(t) must target
// the t%2 half of a doubled staging buffer; consume(t) runs after slot
// t's data has landed.
func prefetch2(p *ga.Proc, n int, issue func(t int) *ga.Handle, consume func(t int)) {
	if n <= 0 {
		return
	}
	// Bottom-tested loop: the first handle is issued before the body and
	// every path from an issue reaches its Wait, which the nbdiscipline
	// flow check verifies (a top-tested loop would leave a zero-trip
	// path where cur is never waited).
	cur := issue(0)
	for t := 0; ; t++ {
		var next *ga.Handle
		if t+1 < n {
			next = issue(t + 1)
		}
		cur.Wait(p)
		if consume != nil {
			consume(t)
		}
		cur = next
		if t+1 >= n {
			break
		}
	}
}

// nbQueue is a bounded write pipeline: pushing a nonblocking Put/Acc
// handle first waits the handle pushed two slots earlier, so at most
// two writes are in flight — their staging memory stays at the
// double-buffer level while the transfer time overlaps the compute
// issued between pushes. drain must run before the enclosing region's
// barrier (the schedules call it at the end of each work unit).
type nbQueue struct {
	p  *ga.Proc
	hs [2]*ga.Handle
	i  int
}

func newNbQueue(p *ga.Proc) nbQueue { return nbQueue{p: p} }

// push enqueues h, waiting the write issued two pushes ago.
func (q *nbQueue) push(h *ga.Handle) {
	q.hs[q.i&1].Wait(q.p)
	q.hs[q.i&1] = h
	q.i++
}

// drain waits the outstanding writes in issue order and resets the
// queue for reuse.
func (q *nbQueue) drain() {
	q.hs[q.i&1].Wait(q.p)
	q.hs[(q.i+1)&1].Wait(q.p)
	q.hs[0], q.hs[1] = nil, nil
}

// triPairs enumerates the canonical lower-triangular tile pairs
// (t0 >= t1) in row-major order, flattening the symmetric double loops
// so triangular gathers can run through prefetch2.
func triPairs(nt int) [][2]int {
	pairs := make([][2]int, 0, sym.Pairs(nt))
	for t0 := 0; t0 < nt; t0++ {
		for t1 := 0; t1 <= t0; t1++ {
			pairs = append(pairs, [2]int{t0, t1})
		}
	}
	return pairs
}

// oomWrap converts a global-memory allocation failure into a helpful
// error mentioning the scheme.
func oomWrap(scheme Scheme, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("fourindex: %v failed: %w", scheme, err)
}

// Checkpoint plumbing. Schedules record progress between Parallel
// regions under their scheme name; a restarted attempt resumes from the
// latest record and drops it on success. Checkpoint I/O is charged at
// disk bandwidth through ga.Runtime.ChargeCheckpoint so the fault-sweep
// experiment can measure its overhead, but the tensor payload (Words)
// is charged whether or not Execute-mode data exists — a Cost-mode
// checkpoint moves the same simulated bytes.

// ckpt returns the checkpoint store, nil when checkpointing is off.
func (c *runCtx) ckpt() faults.Checkpoint { return c.opt.Faults.Store() }

// ckptSave records rec (keyed by rec.Scheme) and charges its write.
func (c *runCtx) ckptSave(rec faults.Record) {
	ck := c.ckpt()
	if ck == nil {
		return
	}
	rec.N = c.n
	c.rt.ChargeCheckpoint(rec.Words, false)
	ck.Save(rec)
}

// ckptResume fetches the latest record for key, validating that it
// belongs to the same problem size. Side-effect free: a schedule that
// decides to use the record calls ckptRestore.
func (c *runCtx) ckptResume(key string) (faults.Record, bool) {
	ck := c.ckpt()
	if ck == nil {
		return faults.Record{}, false
	}
	rec, ok := ck.Latest(key)
	if !ok || rec.N != c.n || rec.Progress <= 0 {
		return faults.Record{}, false
	}
	return rec, true
}

// ckptRestore charges the restore read of rec and emits the KindRestart
// trace event; label names what is being resumed ("l-slab 3", "stage 2").
func (c *runCtx) ckptRestore(rec faults.Record, label string) {
	c.rt.ChargeCheckpoint(rec.Words, true)
	c.rt.TraceRestart(fmt.Sprintf("resume %s at %s", rec.Scheme, label))
}

// ckptDrop forgets key's record (called on successful completion).
func (c *runCtx) ckptDrop(key string) {
	if ck := c.ckpt(); ck != nil {
		ck.Drop(key)
	}
}

// tileStartingAt returns the index of the tile whose lower bound is
// exactly the element offset off, or (len, true) when off equals the
// grid's total extent, or (0, false) when off is not a tile boundary —
// a checkpoint from an incompatibly tiled attempt, which the caller
// must ignore (restart from scratch rather than risk a wrong resume).
func tileStartingAt(g tile.Grid, off int) (int, bool) {
	if off == g.N {
		return g.NumTiles(), true
	}
	for t := 0; t < g.NumTiles(); t++ {
		lo, _ := g.Bounds(t)
		if lo == off {
			return t, true
		}
		if lo > off {
			break
		}
	}
	return 0, false
}
