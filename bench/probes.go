package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"fourindex"
	"fourindex/internal/blas"
	"fourindex/internal/faults"
	"fourindex/internal/ga"
	"fourindex/internal/tile"
	"fourindex/internal/trace"
)

// Probe timing: a probe repeats its call in batches grown until one takes
// minBatch, then reports the median per-call time of probeBatches batches.
const (
	minBatch     = 0.01
	probeBatches = 5
)

// directRing sizes the event ring of a probe's traced direct run so that
// no event is dropped.
const directRing = 1 << 20

// perCall times fn(reps) as described at minBatch.
func perCall(fn func(reps int) error) (float64, error) {
	reps := 1
	for {
		t0 := now()
		if err := fn(reps); err != nil {
			return 0, err
		}
		if since(t0) >= minBatch {
			break
		}
		reps *= 2
	}
	per := make([]float64, 0, probeBatches)
	for b := 0; b < probeBatches; b++ {
		t0 := now()
		if err := fn(reps); err != nil {
			return 0, err
		}
		per = append(per, since(t0)/float64(reps))
	}
	return median(per), nil
}

// directRun is one direct transform of a planned job.
type directRun struct {
	seconds  float64
	checksum string // empty in cost mode
}

// direct runs j as the job server's executeJob would, on the server's
// machine model, without its tracer and checkpoint store.
func direct(ctx context.Context, j job, seed int64) (directRun, error) {
	t, err := newTransformer(j, seed)
	if err != nil {
		return directRun{}, err
	}
	model, err := machineRun()
	if err != nil {
		return directRun{}, err
	}
	t.opt.Run = &model
	res, d, err := t.transform(ctx, nil)
	if err != nil {
		return directRun{}, fmt.Errorf("direct %s: %w", j.label(), err)
	}
	out := directRun{seconds: d}
	if res.C != nil {
		out.checksum = checksum(res.C)
	}
	return out, nil
}

// distinct returns the block's jobs without repeats, in block order.
func distinct(block []job) []job {
	seen := map[string]bool{}
	var out []job
	for _, j := range block {
		if !seen[j.label()] {
			seen[j.label()] = true
			out = append(out, j)
		}
	}
	return out
}

// withDefaultTiles fills in the tile widths the server's planner picks
// when a job leaves them out.
func (j job) withDefaultTiles() job {
	if j.TileN <= 0 {
		div := 6
		if j.mode() == fourindex.ModeCost && j.N >= 240 {
			div = 24
		}
		j.TileN = max(1, j.N/div)
	}
	j.TileN = min(j.TileN, j.N)
	if j.TileL <= 0 {
		j.TileL = j.TileN
	}
	j.TileL = min(j.TileL, j.N)
	return j
}

// probeLayers measures each layer at the workload's shapes and jobs:
// GEMM at the schedules' op1 and op4 shapes, the ga verbs at the tile
// size, integral generation, the server's pricing of each distinct job,
// and a traced direct run of each with a timed checkpoint store. It
// returns a plain direct run of each job, keyed by the job's label.
func (r *run) probeLayers(ctx context.Context, v map[string]float64) (map[string]directRun, error) {
	n, t := r.w.probeN, r.w.probeTile
	if _, err := r.rec.probe("blas", func() error { return probeGemm(n, t, v) }); err != nil {
		return nil, err
	}
	if _, err := r.rec.probe("ga", func() error { return probeGA(t, v) }); err != nil {
		return nil, err
	}
	if _, err := r.rec.probe("chem", func() error { return probeIntegrals(n, t, r.seed, v) }); err != nil {
		return nil, err
	}
	plan, err := r.probePricing(ctx, v)
	if err != nil {
		return nil, err
	}
	return r.probeDirect(ctx, plan, v)
}

// probeGemm times Dgemm at the op1 shape (m = tile, k = n, the rest of
// the slab as columns) and the op4 transB shape (tile x tile x n).
func probeGemm(n, t int, v map[string]float64) error {
	shapes := []struct {
		name    string
		m, c, k int
		transB  bool
	}{
		{"blas.gemm_op1_gflops", t, t * t * t, n, false},
		{"blas.gemm_op4_gflops", t, t, n, true},
	}
	for _, sh := range shapes {
		a := filled(sh.m * sh.k)
		b := filled(sh.k * sh.c)
		c := make([]float64, sh.m*sh.c)
		ldb := sh.c
		if sh.transB {
			ldb = sh.k
		}
		sec, err := perCall(func(reps int) error {
			for i := 0; i < reps; i++ {
				blas.Dgemm(false, sh.transB, sh.m, sh.c, sh.k, 1, a, sh.k, b, ldb, 1, c, sh.c)
			}
			return nil
		})
		if err != nil {
			return err
		}
		v[sh.name] = float64(blas.GemmFlops(sh.m, sh.c, sh.k)) / sec / 1e9
	}
	return nil
}

// filled returns n small deterministic values.
func filled(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%7-3) / 8
	}
	return x
}

// probeGA times the ga verbs on 4-d tiles of width t, issued by process 0
// of a four-process runtime, and a barrier of all four.
func probeGA(t int, v map[string]float64) error {
	rt, err := ga.NewRuntime(ga.Config{Procs: procs, Mode: ga.Execute})
	if err != nil {
		return err
	}
	g := tile.NewGrid(2*t, t)
	a, err := rt.CreateTiled("probe", []tile.Grid{g, g, g, g}, nil, tile.RoundRobin)
	if err != nil {
		return err
	}
	defer rt.DestroyTiled(a)
	words := int64(t * t * t * t)
	// onProc0 runs body reps times on process 0, cycling through the 16
	// tiles, with a tile-sized local buffer.
	onProc0 := func(reps int, body func(p *ga.Proc, buf []float64, c []int)) error {
		return rt.Parallel(func(p *ga.Proc) {
			if p.ID() != 0 {
				return
			}
			buf := p.MustAllocLocal(words)
			c := make([]int, 4)
			for i := 0; i < reps; i++ {
				for d := range c {
					c[d] = i >> d & 1
				}
				body(p, buf.Data, c)
			}
			p.FreeLocal(buf)
		})
	}
	verbs := []struct {
		name string
		fn   func(reps int) error
	}{
		{"ga.put_ns", func(reps int) error {
			return onProc0(reps, func(p *ga.Proc, buf []float64, c []int) { p.PutT(a, buf, c...) })
		}},
		{"ga.get_ns", func(reps int) error {
			return onProc0(reps, func(p *ga.Proc, buf []float64, c []int) { p.GetT(a, buf, c...) })
		}},
		{"ga.acc_ns", func(reps int) error {
			return onProc0(reps, func(p *ga.Proc, buf []float64, c []int) { p.AccT(a, 1, buf, c...) })
		}},
		{"ga.nbget_wait_ns", func(reps int) error {
			return onProc0(reps, func(p *ga.Proc, buf []float64, c []int) {
				h := p.NbGetT(a, buf, c...)
				h.Wait(p)
			})
		}},
		{"ga.alloc_free_ns", func(reps int) error {
			return onProc0(reps, func(p *ga.Proc, _ []float64, _ []int) {
				b := p.MustAllocLocal(words)
				p.FreeLocal(b)
			})
		}},
		{"ga.barrier_ns", func(reps int) error {
			return rt.Parallel(func(p *ga.Proc) {
				for i := 0; i < reps; i++ {
					p.Barrier()
				}
			})
		}},
		// Last: Freeze is permanent and forbids further writes.
		{"ga.get_frozen_ns", func(reps int) error {
			a.Freeze()
			return onProc0(reps, func(p *ga.Proc, buf []float64, c []int) { p.GetT(a, buf, c...) })
		}},
	}
	for _, vb := range verbs {
		sec, err := perCall(vb.fn)
		if err != nil {
			return fmt.Errorf("%s: %w", vb.name, err)
		}
		v[vb.name] = sec * 1e9
	}
	return nil
}

// probeIntegrals times ComputeA over one l-slab (n^3 t elements).
func probeIntegrals(n, t int, seed int64, v map[string]float64) error {
	spec, err := fourindex.NewSpec(n, 1, specSeed(seed))
	if err != nil {
		return err
	}
	var sink float64
	sec, err := perCall(func(reps int) error {
		for rep := 0; rep < reps; rep++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					for k := 0; k < n; k++ {
						for l := 0; l < t; l++ {
							sink += spec.ComputeA(i, j, k, l)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if math.IsNaN(sink) {
		return fmt.Errorf("integrals summed to NaN")
	}
	v["chem.integral_ns"] = sec / float64(n*n*n*t) * 1e9
	return nil
}

// probePricing prices each distinct job as the server's admission does:
// the frontier tune over scheme "auto"'s space (which the server runs
// only for "auto" jobs, timed here for every job), then a cost-mode dry
// run of the planned schedule. It returns each job as planned, keyed by
// its label.
func (r *run) probePricing(ctx context.Context, v map[string]float64) (map[string]job, error) {
	model, err := machineRun()
	if err != nil {
		return nil, err
	}
	plan := map[string]job{}
	var tune, dry, sims []float64
	for _, j := range distinct(r.w.block) {
		p := j.withDefaultTiles()
		spec, err := fourindex.NewSpec(p.N, 1, specSeed(r.seed))
		if err != nil {
			return nil, err
		}
		// The server's auto space: its tile width, twice it, and alpha
		// parallelisation 1 or 2 (internal/serve autoTuneSpace).
		tiles := []int{p.TileN}
		if 2*p.TileN <= p.N {
			tiles = append(tiles, 2*p.TileN)
		}
		space := fourindex.TuneSpace{TileNs: tiles, TileLs: tiles, AlphaPars: []int{1, 2}, LPars: []int{1}}
		var ft *fourindex.FrontierTuneResult
		sec, err := r.rec.probe("price.tune "+j.label(), func() error {
			var err error
			ft, err = fourindex.TuneFrontierContext(ctx, fourindex.Options{Spec: spec, Procs: procs, Run: &model, GlobalMemBytes: memBudget}, space, 0)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("tune %s: %w", j.label(), err)
		}
		tune = append(tune, sec)
		sims = append(sims, float64(ft.Simulated))
		if j.Scheme == "auto" {
			p.Scheme, p.TileN, p.TileL = ft.Pick.Scheme.String(), ft.Pick.TileN, ft.Pick.TileL
			if p.TileL <= 0 {
				p.TileL = p.TileN
			}
		}
		tr, err := newTransformer(p, r.seed)
		if err != nil {
			return nil, err
		}
		tr.opt.Mode, tr.opt.Run = fourindex.ModeCost, &model
		sec, err = r.rec.probe("price.dryrun "+p.label(), func() error {
			_, _, err := tr.transform(ctx, nil)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("dry run %s: %w", p.label(), err)
		}
		dry = append(dry, sec)
		plan[j.label()] = p
	}
	v["price.tune_s"] = mean(tune)
	v["price.dryrun_s"] = mean(dry)
	v["price.sims_per_op"] = mean(sims)
	return plan, nil
}

// timedCheckpoint is a file checkpoint store that counts and times saves.
type timedCheckpoint struct {
	*faults.FileCheckpoint
	saves   int
	bytes   int64
	seconds float64
}

// Save times the underlying save and counts the bytes the store holds
// after it: the one record file it keeps per scheme.
func (c *timedCheckpoint) Save(rec faults.Record) {
	t0 := now()
	c.FileCheckpoint.Save(rec)
	c.seconds += since(t0)
	c.saves++
	entries, _ := os.ReadDir(c.Dir()) // an unreadable store counts as empty
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			c.bytes += info.Size()
		}
	}
}

// probeDirect runs each planned job directly twice: traced, with a timed
// file checkpoint store as the server's executeJob attaches one, for the
// ga operation counts and checkpoint cost; and plain, for the direct
// wall time and checksum it returns.
func (r *run) probeDirect(ctx context.Context, plan map[string]job, v map[string]float64) (map[string]directRun, error) {
	model, err := machineRun()
	if err != nil {
		return nil, err
	}
	out := map[string]directRun{}
	var ops, elems, saves, mb, saveS []float64
	for i, j := range distinct(r.w.block) {
		p := plan[j.label()]
		t, err := newTransformer(p, r.seed)
		if err != nil {
			return nil, err
		}
		fc, err := faults.NewFileCheckpoint(filepath.Join(r.dir, fmt.Sprintf("ckpt-%d", i)))
		if err != nil {
			return nil, err
		}
		ck := &timedCheckpoint{FileCheckpoint: fc}
		t.opt.Run, t.opt.GlobalMemBytes = &model, memBudget
		t.opt.Faults = &fourindex.FaultInjection{Checkpoint: ck}
		tr := fourindex.NewTracer(directRing)
		root := r.rec.add("direct "+p.label(), catOp, probeLane, -1, now(), time.Time{})
		tr.SetProgressListener(r.rec.listener(probeLane, root))
		_, _, err = t.transform(ctx, tr)
		r.rec.finish(root, now())
		r.directRoots = append(r.directRoots, root)
		os.RemoveAll(fc.Dir())
		if err != nil {
			return nil, fmt.Errorf("traced direct %s: %w", p.label(), err)
		}
		if n := tr.Dropped(); n > 0 {
			return nil, fmt.Errorf("traced direct %s: the event ring dropped %d events", p.label(), n)
		}
		var nops, nelems int64
		for _, ev := range tr.Events() {
			switch ev.Kind {
			case trace.KindGet, trace.KindPut, trace.KindAcc, trace.KindNbGet, trace.KindNbPut, trace.KindNbAcc:
				nops++
				nelems += ev.Elems
			}
		}
		ops = append(ops, float64(nops))
		elems = append(elems, float64(nelems))
		saves = append(saves, float64(ck.saves))
		mb = append(mb, float64(ck.bytes)/(1<<20))
		saveS = append(saveS, ck.seconds)

		d, err := direct(ctx, p, r.seed)
		if err != nil {
			return nil, err
		}
		out[j.label()] = d
	}
	v["ga.ops_per_op"] = mean(ops)
	v["ga.elems_per_op"] = mean(elems)
	v["ckpt.saves_per_op"] = mean(saves)
	v["ckpt.mb_per_op"] = mean(mb)
	v["ckpt.save_s_per_op"] = mean(saveS)
	return out, nil
}
