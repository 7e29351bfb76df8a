package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"fourindex"
	"fourindex/internal/sym"
)

// traceRing sizes the event ring of a traced transform so that no event
// is dropped (exec-tiles emits about 118k per transform).
const traceRing = 1 << 18

// transformer is one transform, ready to run.
type transformer struct {
	scheme fourindex.Scheme
	opt    fourindex.Options
}

// newTransformer builds j's transform as the job server would run it,
// without the server's tracer and checkpoint store.
func newTransformer(j job, seed int64) (transformer, error) {
	spec, err := fourindex.NewSpec(j.N, 1, specSeed(seed))
	if err != nil {
		return transformer{}, err
	}
	scheme, err := fourindex.SchemeByName(j.Scheme)
	if err != nil {
		return transformer{}, err
	}
	opt := fourindex.Options{Spec: spec, Procs: procs, Mode: j.mode(), TileN: j.TileN, TileL: j.TileL}
	if j.mode() == fourindex.ModeCost {
		model, err := machineRun()
		if err != nil {
			return transformer{}, err
		}
		opt.Run = &model
	}
	return transformer{scheme: scheme, opt: opt}, nil
}

// transform runs once and returns the call's wall seconds; tr may be nil.
func (t transformer) transform(ctx context.Context, tr *fourindex.Tracer) (*fourindex.Result, float64, error) {
	opt := t.opt
	opt.Trace = tr
	t0 := now()
	res, err := fourindex.TransformContext(ctx, t.scheme, opt)
	return res, since(t0), err
}

// machineRun is the cluster model the job server prices and simulates on.
func machineRun() (fourindex.Run, error) {
	m, err := fourindex.MachineByName("B")
	if err != nil {
		return fourindex.Run{}, err
	}
	return m.Configure(procs, 0)
}

// checksum fingerprints C bit for bit the way the job server reports it:
// SHA-256 over the little-endian float64 bits in packed order.
func checksum(c *fourindex.PackedC) string {
	h := sha256.New()
	var buf [8]byte
	for _, x := range c.Data() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// more reports whether a timed loop that has run i operations since
// start goes on: until both the run time and the sample count are met.
func (r *run) more(ctx context.Context, start time.Time, i int) bool {
	return ctx.Err() == nil && (i < r.minOps || since(start) < r.seconds)
}

// execSetup builds the workload's transform and warms it up, setups
// times, returning the last transformer and each setup's seconds.
func (r *run) execSetup(ctx context.Context) (transformer, []float64, error) {
	var t transformer
	var setup []float64
	for i := 0; i < r.setups; i++ {
		t0 := now()
		var err error
		if t, err = newTransformer(r.w.block[0], r.seed); err != nil {
			return t, nil, err
		}
		if _, _, err := t.transform(ctx, nil); err != nil {
			return t, nil, fmt.Errorf("warm-up transform: %w", err)
		}
		setup = append(setup, since(t0))
	}
	runtime.GC()
	return t, setup, nil
}

// execEndToEnd times sequential transforms. The first C is checked
// against the sequential reference; every later one must be bitwise
// identical to it.
func (r *run) execEndToEnd(ctx context.Context) (map[string]float64, error) {
	t, setup, err := r.execSetup(ctx)
	if err != nil {
		return nil, err
	}
	var ops []float64
	var wall float64
	var first *fourindex.PackedC
	var firstSum string
	start := now()
	for i := 0; r.more(ctx, start, i); i++ {
		r.tally.attempt()
		res, d, err := t.transform(ctx, nil)
		if err != nil {
			r.tally.fail("transform %d: %v", i, err)
			continue
		}
		ops = append(ops, d)
		wall += d
		switch sum := checksum(res.C); {
		case first == nil:
			first, firstSum = res.C, sum
		case sum != firstSum:
			r.tally.fail("transform %d: C differs bitwise from the first transform", i)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	values, err := endToEndMetrics(setup, ops, wall)
	if first != nil {
		r.checkReference(t.opt.Spec, first)
	}
	return values, err
}

// checkReference compares C with the sequential packed reference.
func (r *run) checkReference(spec fourindex.Spec, c *fourindex.PackedC) {
	ref := fourindex.ReferencePacked(spec)
	var scale float64
	for _, x := range ref.Data() {
		scale = math.Max(scale, math.Abs(x))
	}
	if d := sym.MaxAbsDiffC(c, ref); !(d <= 1e-10*scale) {
		r.tally.fail("C differs from the reference by %g (tolerance %g)", d, 1e-10*scale)
	}
}

// execTraced alternates traced and untraced transforms for the run time,
// then probes each layer. The traced ones give the phase split and the
// tracing overhead; the untraced ones the allocation counts.
func (r *run) execTraced(ctx context.Context) (map[string]float64, error) {
	t, _, err := r.execSetup(ctx)
	if err != nil {
		return nil, err
	}
	var roots []int
	var traced, plain, allocs, allocMB []float64
	start := now()
	for i := 0; r.more(ctx, start, i); i++ {
		r.tally.attempt()
		if r.w.tracedRound(i) {
			tr := fourindex.NewTracer(traceRing)
			root := r.rec.add("transform", catOp, 0, -1, now(), time.Time{})
			tr.SetProgressListener(r.rec.listener(0, root))
			_, d, err := t.transform(ctx, tr)
			r.rec.finish(root, now())
			if err != nil {
				r.tally.fail("traced transform %d: %v", i, err)
				continue
			}
			if n := tr.Dropped(); n > 0 {
				r.tally.fail("traced transform %d: the event ring dropped %d events", i, n)
			}
			roots = append(roots, root)
			traced = append(traced, d)
			continue
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, d, err := t.transform(ctx, nil)
		runtime.ReadMemStats(&m1)
		if err != nil {
			r.tally.fail("transform %d: %v", i, err)
			continue
		}
		plain = append(plain, d)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v := map[string]float64{
		"trace.overhead_frac": median(traced)/median(plain) - 1,
		"mem.allocs_per_op":   median(allocs),
		"mem.alloc_mb_per_op": median(allocMB),
	}
	spans, kids := r.rec.closed()
	phaseMetrics(splits(spans, kids, roots), v)

	direct, err := r.probeLayers(ctx, v)
	if err != nil {
		return nil, err
	}
	// The serve layer: the same transform as one job through the server.
	s, err := r.startServer()
	if err != nil {
		return nil, err
	}
	defer s.close()
	r.tally.attempt()
	jr, err := s.runJob(ctx, r.w.block[0], r.seed, "probe", probeLane, r.rec)
	if err != nil {
		return nil, fmt.Errorf("serve probe: %w", err)
	}
	r.checkJob(jr, direct)
	serveMetrics([]jobRun{jr}, direct, v)
	return v, nil
}
