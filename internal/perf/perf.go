// Package perf is the reproducible benchmark harness: it runs a fixed
// matrix of {schedule} x {execute-mode sizes, cost-mode molecules} x
// {GOMAXPROCS points}, records the deterministic accounting every run
// produces (flops, elements moved, messages, peak memory, simulated
// seconds, bound attainment from the trace audit) and — optionally —
// measured wall time and allocations, and emits a schema-versioned JSON
// report (BENCH_fouridx.json at the repo root).
//
// The report splits cleanly into two layers:
//
//   - Deterministic fields are identical on every machine and every run
//     (the cost/execute equivalence the runtime's counters guarantee).
//     With Config.Measure off the whole report is byte-stable, which the
//     determinism and golden-file tests pin.
//
//   - The optional "measured" sub-object carries wall-clock quantities.
//     These are machine-dependent; the regression gate (Gate) normalises
//     them by the median ratio across points before applying its
//     tolerance, so a uniformly faster or slower machine does not trip
//     the gate while a single regressed schedule does.
//
// perf is the one non-main package permitted to read the wall clock
// (enforced by the metricsdiscipline analyzer): benchmarking is its
// entire purpose.
package perf

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"fourindex/internal/chem"
	"fourindex/internal/experiments"
	"fourindex/internal/fourindex"
	"fourindex/internal/ga"
	"fourindex/internal/trace"
)

// SchemaVersion is bumped whenever the JSON report shape changes
// incompatibly; Gate refuses to compare across versions. Version 2
// added the overlap axis (each matrix cell runs with the nonblocking
// communication path off and on) and the exposed-comm fraction.
// Version 3 added a Strassen GEMM axis on execute points and a
// crossover-calibration block; version 4 removed both again (the
// recursion never engaged at any benchmarked size).
const SchemaVersion = 4

// benchSeed fixes the integral-generator seed for every benchmark run.
const benchSeed = 7

// ExecutePoint is one execute-mode problem size in the matrix.
type ExecutePoint struct {
	// N is the orbital count (real arithmetic, so kept small).
	N int
	// Procs is the number of GA processes.
	Procs int
}

// CostPoint is one cost-mode molecule/machine point in the matrix.
type CostPoint struct {
	// Molecule names a benchmark molecule (chem.Catalog).
	Molecule string
	// System is the cluster model ("A", "B" or "C").
	System string
	// Cores is the simulated core count.
	Cores int
}

// Config selects the benchmark matrix.
type Config struct {
	// Schemes to run at every execute point. Empty selects all eight.
	Schemes []fourindex.Scheme
	// CostSchemes to run at every cost point. Empty selects all but
	// Recompute, whose element-level n^6 loops are prohibitive at
	// molecule scale (the same exclusion Figure 2 makes).
	CostSchemes []fourindex.Scheme
	// ExecutePoints are the execute-mode sizes.
	ExecutePoints []ExecutePoint
	// CostPoints are the cost-mode molecule points.
	CostPoints []CostPoint
	// Gomaxprocs sweeps runtime.GOMAXPROCS over execute points (cost
	// points simulate their own parallelism and run at the ambient
	// setting). Empty selects {1, 4}.
	Gomaxprocs []int
	// Overlap sweeps Options.Overlap over every point: off exercises the
	// blocking verbs, on the nonblocking double-buffered path. Empty
	// selects {false, true}, which pins the overlap win (cost-mode
	// simulated seconds and the exposed-comm fraction) in the baseline.
	Overlap []bool
	// Measure records wall time and allocations (and the read-path and
	// transposed-B GEMM microbenchmarks). Off, the report is fully
	// deterministic.
	Measure bool
	// Repeats is how many timed repetitions each measured point runs;
	// the minimum wall time is reported (default 3).
	Repeats int
}

// DefaultConfig is the full checked-in matrix behind BENCH_fouridx.json.
func DefaultConfig() Config {
	return Config{
		ExecutePoints: []ExecutePoint{{N: 16, Procs: 2}, {N: 24, Procs: 4}, {N: 24, Procs: 8}},
		CostPoints: []CostPoint{
			{Molecule: "Hyperpolar", System: "A", Cores: 32},
			{Molecule: "Hyperpolar", System: "B", Cores: 140},
			{Molecule: "C60H20", System: "B", Cores: 140},
		},
		Gomaxprocs: []int{1, 4},
		Measure:    true,
		Repeats:    3,
	}
}

// SmokeConfig is a strict subset of DefaultConfig sized for CI: every
// scheme still runs, at the smallest execute and cost points only, so
// Gate can compare a smoke run against the full checked-in baseline.
// The extra repeats buy a stabler minimum on shared CI machines — the
// smoke points are small, so five repetitions still finish in seconds.
func SmokeConfig() Config {
	return Config{
		ExecutePoints: []ExecutePoint{{N: 16, Procs: 2}},
		CostPoints:    []CostPoint{{Molecule: "Hyperpolar", System: "A", Cores: 32}},
		Gomaxprocs:    []int{1},
		Measure:       true,
		Repeats:       5,
	}
}

// Measured carries the machine-dependent quantities of one point. It is
// present only when Config.Measure was set.
type Measured struct {
	// WallSeconds is the minimum wall time over the configured repeats.
	WallSeconds float64 `json:"wallSeconds"`
	// FlopsPerSec is Flops / WallSeconds (execute points only; cost
	// points count simulated flops the host never performs).
	FlopsPerSec float64 `json:"flopsPerSec,omitempty"`
	// AllocBytes and Allocs are the heap-allocation deltas of one run.
	AllocBytes int64 `json:"allocBytes"`
	Allocs     int64 `json:"allocs"`
}

// Point is one completed cell of the benchmark matrix.
type Point struct {
	// Kind is "execute" or "cost".
	Kind string `json:"kind"`
	// Scheme is the schedule name (fourindex.Scheme.String).
	Scheme string `json:"scheme"`
	// N is the orbital count (execute points).
	N int `json:"n,omitempty"`
	// Molecule and System identify a cost point.
	Molecule string `json:"molecule,omitempty"`
	System   string `json:"system,omitempty"`
	// Procs is the GA process count (simulated cores for cost points).
	Procs int `json:"procs"`
	// Gomaxprocs is the host parallelism the point ran at (execute
	// points; 0 for cost points).
	Gomaxprocs int `json:"gomaxprocs,omitempty"`
	// Overlap reports whether the point ran with the nonblocking
	// communication path (Options.Overlap).
	Overlap bool `json:"overlap,omitempty"`

	// Deterministic accounting, identical across machines and runs.
	Flops           int64   `json:"flops"`
	CommElements    int64   `json:"commElements"`
	IntraElements   int64   `json:"intraElements"`
	DiskElements    int64   `json:"diskElements"`
	Messages        int64   `json:"messages"`
	PeakGlobalBytes int64   `json:"peakGlobalBytes"`
	BytesMoved      int64   `json:"bytesMoved"`
	SimSeconds      float64 `json:"simSeconds,omitempty"`
	// ExposedCommFraction is exposed transfer time over total transfer
	// time (cost points with a machine model; 1 with Overlap off, lower
	// as the nonblocking verbs hide transfers behind compute). Gated
	// deterministically: a drift means the overlap pipeline changed.
	ExposedCommFraction float64 `json:"exposedCommFraction,omitempty"`
	// Attained is the aggregate bound-vs-actual fraction from the trace
	// audit (sum of per-phase lower bounds over actual elements moved,
	// memory-independent floor), 0 when no phase was auditable.
	Attained float64 `json:"attained,omitempty"`

	// Measured is nil unless Config.Measure was set.
	Measured *Measured `json:"measured,omitempty"`
}

// Key identifies a point across reports (for baseline comparison).
func (p Point) Key() string {
	ov := 0
	if p.Overlap {
		ov = 1
	}
	return fmt.Sprintf("%s/%s/n%d/%s%s/p%d/g%d/o%d",
		p.Kind, p.Scheme, p.N, p.Molecule, p.System, p.Procs, p.Gomaxprocs, ov)
}

// Report is the schema-versioned benchmark output.
type Report struct {
	SchemaVersion int     `json:"schemaVersion"`
	Points        []Point `json:"points"`
	// ReadPath is the GetT read-path microbenchmark (Measure only).
	ReadPath *ReadPathResult `json:"readPath,omitempty"`
	// GemmTransB is the transposed-B GEMM microbenchmark (Measure only).
	GemmTransB *GemmTransBResult `json:"gemmTransB,omitempty"`
}

// withDefaults fills the config's empty fields.
func (c Config) withDefaults() Config {
	if len(c.Schemes) == 0 {
		c.Schemes = []fourindex.Scheme{
			fourindex.Unfused, fourindex.Fused1234Pair, fourindex.Recompute,
			fourindex.FullyFused, fourindex.FullyFusedInner, fourindex.Hybrid,
			fourindex.NWChemFused, fourindex.Fused123,
		}
	}
	if len(c.CostSchemes) == 0 {
		for _, s := range c.Schemes {
			if s != fourindex.Recompute {
				c.CostSchemes = append(c.CostSchemes, s)
			}
		}
	}
	if len(c.Gomaxprocs) == 0 {
		c.Gomaxprocs = []int{1, 4}
	}
	if len(c.Overlap) == 0 {
		c.Overlap = []bool{false, true}
	}
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
	return c
}

// Run executes the benchmark matrix and returns the report. The matrix
// order is fixed (gomaxprocs, then point, then scheme, then overlap;
// cost points after execute points) so reports are comparable line by
// line. Run never cancels; RunContext adds cooperative cancellation.
func Run(cfg Config) (*Report, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cooperative cancellation: ctx is polled before
// every matrix point (and each point's transform polls at its own slab
// boundaries), returning an error wrapping fourindex.ErrCanceled —
// never a partial report — once ctx is done.
func RunContext(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{SchemaVersion: SchemaVersion}

	for _, gmp := range cfg.Gomaxprocs {
		prev := runtime.GOMAXPROCS(gmp)
		for _, ep := range cfg.ExecutePoints {
			for _, s := range cfg.Schemes {
				for _, ov := range cfg.Overlap {
					pt, err := runExecutePoint(ctx, s, ep, gmp, ov, cfg)
					if err != nil {
						runtime.GOMAXPROCS(prev)
						return nil, err
					}
					rep.Points = append(rep.Points, pt)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}

	for _, cp := range cfg.CostPoints {
		for _, s := range cfg.CostSchemes {
			for _, ov := range cfg.Overlap {
				pt, err := runCostPoint(ctx, s, cp, ov, cfg)
				if err != nil {
					return nil, err
				}
				rep.Points = append(rep.Points, pt)
			}
		}
	}

	if cfg.Measure {
		// A small tile keeps the copy cheap so the measurement contrasts
		// the lock acquisition itself (the contended cost the frozen fast
		// path removes) rather than memcpy throughput.
		rp, err := BenchReadPath(8, 5000, 8)
		if err != nil {
			return nil, err
		}
		rep.ReadPath = &rp
		gb := BenchGemmTransB(192, 192, 192)
		rep.GemmTransB = &gb
	}
	return rep, nil
}

// executeOptions builds the Options one execute point runs with.
func executeOptions(ep ExecutePoint) (fourindex.Options, error) {
	spec, err := chem.NewSpec(ep.N, 1, benchSeed)
	if err != nil {
		return fourindex.Options{}, err
	}
	return fourindex.Options{Spec: spec, Procs: ep.Procs, Mode: ga.Execute}, nil
}

func runExecutePoint(ctx context.Context, s fourindex.Scheme, ep ExecutePoint, gmp int, overlap bool, cfg Config) (Point, error) {
	opt, err := executeOptions(ep)
	if err != nil {
		return Point{}, err
	}
	opt.Overlap = overlap
	pt := Point{Kind: "execute", Scheme: s.String(), N: ep.N, Procs: ep.Procs, Gomaxprocs: gmp, Overlap: overlap}
	if err := fillPoint(ctx, &pt, s, opt, ep.N, 1, cfg); err != nil {
		if errors.Is(err, fourindex.ErrCanceled) {
			return Point{}, err
		}
		return Point{}, fmt.Errorf("perf: execute %s n=%d procs=%d: %w", s, ep.N, ep.Procs, err)
	}
	return pt, nil
}

func runCostPoint(ctx context.Context, s fourindex.Scheme, cp CostPoint, overlap bool, cfg Config) (Point, error) {
	opt, err := experiments.BenchOptions(cp.Molecule, cp.System, cp.Cores)
	if err != nil {
		return Point{}, err
	}
	opt.Overlap = overlap
	pt := Point{Kind: "cost", Scheme: s.String(), Molecule: cp.Molecule, System: cp.System, Procs: cp.Cores, Overlap: overlap}
	if err := fillPoint(ctx, &pt, s, opt, opt.Spec.N, experiments.SpatialSymmetry, cfg); err != nil {
		if errors.Is(err, fourindex.ErrCanceled) {
			return Point{}, err
		}
		return Point{}, fmt.Errorf("perf: cost %s %s/%s/%d: %w", s, cp.Molecule, cp.System, cp.Cores, err)
	}
	return pt, nil
}

// fillPoint runs one traced pass for the deterministic accounting plus,
// under cfg.Measure, untraced timed repetitions for the wall-clock
// fields (tracer overhead stays out of the measurement).
func fillPoint(ctx context.Context, pt *Point, s fourindex.Scheme, opt fourindex.Options, n, symFactor int, cfg Config) error {
	tr := trace.New(0)
	opt.Trace = tr
	res, err := fourindex.RunContext(ctx, s, opt)
	if err != nil {
		return err
	}
	pt.Flops = res.Totals.Flops
	pt.CommElements = res.CommVolume
	pt.IntraElements = res.IntraVolume
	pt.DiskElements = res.DiskVolume
	pt.Messages = res.Totals.CommMessages
	pt.PeakGlobalBytes = res.PeakGlobalBytes
	pt.BytesMoved = 8 * (res.CommVolume + res.IntraVolume + res.DiskVolume)
	pt.SimSeconds = res.ElapsedSeconds
	if total := res.ExposedCommSeconds + res.OverlapCommSeconds; total > 0 {
		pt.ExposedCommFraction = res.ExposedCommSeconds / total
	}
	pt.Attained = aggregateAttained(tr.Audit(n, symFactor, 0))

	if !cfg.Measure {
		return nil
	}
	opt.Trace = nil
	var ms0, ms1 runtime.MemStats
	best := 0.0
	for r := 0; r < cfg.Repeats; r++ {
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		if _, err := fourindex.RunContext(ctx, s, opt); err != nil {
			return err
		}
		wall := time.Since(start).Seconds()
		runtime.ReadMemStats(&ms1)
		if r == 0 || wall < best {
			best = wall
		}
		if r == 0 {
			pt.Measured = &Measured{
				AllocBytes: int64(ms1.TotalAlloc - ms0.TotalAlloc),
				Allocs:     int64(ms1.Mallocs - ms0.Mallocs),
			}
		}
	}
	pt.Measured.WallSeconds = best
	if pt.Kind == "execute" && best > 0 {
		pt.Measured.FlopsPerSec = float64(pt.Flops) / best
	}
	return nil
}

// aggregateAttained collapses the per-phase audit into one fraction:
// total lower-bound elements over total actual elements moved.
func aggregateAttained(rows []trace.AuditRow) float64 {
	var bound, actual float64
	for _, r := range rows {
		if r.ActualElems > 0 {
			bound += r.BoundElems
			actual += float64(r.ActualElems)
		}
	}
	if actual == 0 {
		return 0
	}
	return bound / actual
}
