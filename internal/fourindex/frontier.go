package fourindex

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"fourindex/internal/lb"
	"fourindex/internal/lb/chain"
	"fourindex/internal/sym"
)

// This file bridges the lb capacity-vs-bound frontier (lb.ConfigBoundAt,
// lb.CapacityGrid) to the executable schedules: it names each curve
// after the scheme that realises it, attaches the scheme's own memory
// model as the feasibility edge, emits the whole thing as the
// schema-versioned FRONTIER_fouridx.json artifact, and drives the
// frontier tuner that replaces the brute-force sweep — shortlist by
// machine-aware lower-bound time at the machine's actual capacity,
// cost-simulate only the shortlist.

// FrontierSchemaVersion is bumped whenever the FRONTIER_fouridx.json
// shape changes incompatibly; the golden test refuses stale artifacts
// byte-for-byte regardless.
const FrontierSchemaVersion = 1

// FrontierProblem names one (n, s) problem the frontier artifact covers.
type FrontierProblem struct {
	// Name labels the problem (a molecule name or a synthetic label).
	Name string `json:"name"`
	// N is the orbital count.
	N int `json:"n"`
	// Sym is the spatial-symmetry order applied to the output tensor.
	Sym int `json:"spatialSymmetry"`
}

// DefaultFrontierProblems returns the problems behind the checked-in
// FRONTIER_fouridx.json: the two bench-matrix cost molecules at the
// paper's s = 8 benchmark symmetry, plus the symmetry-free n = 256
// point the overlap work benchmarks on System B.
func DefaultFrontierProblems() []FrontierProblem {
	return []FrontierProblem{
		{Name: "Hyperpolar", N: 368, Sym: 8},
		{Name: "C60H20", N: 580, Sym: 8},
		{Name: "SystemB-n256", N: 256, Sym: 1},
	}
}

// FrontierPoint is one capacity sample of a schedule's frontier.
type FrontierPoint struct {
	// S is the fast-memory capacity in elements.
	S int64 `json:"s"`
	// Feasible reports whether the schedule's memory model fits in S.
	Feasible bool `json:"feasible"`
	// BoundElements is the schedule's I/O lower bound at S.
	BoundElements float64 `json:"boundElements"`
}

// ScheduleFrontier is one schedule's capacity-vs-bound curve: the
// feasible region, the bound at every grid capacity, and the knees.
type ScheduleFrontier struct {
	// Scheme names the schedule ("unfused", "fullyfused-inner", ...).
	Scheme string `json:"scheme"`
	// Config is the fusion configuration the schedule realises.
	Config string `json:"config"`
	// FloorElements is the memory-independent bound floor the curve
	// flattens onto (lb.ConfigIO).
	FloorElements int64 `json:"floorElements"`
	// MinMemoryElements is the schedule's memory model at its smallest
	// tile width — the feasibility edge of the frontier.
	MinMemoryElements int64 `json:"minMemoryElements"`
	// FlatAtS is the smallest grid capacity where the bound equals the
	// floor; it coincides with the paper's closed-form threshold for
	// the schedule's configuration (the knee).
	FlatAtS int64 `json:"flatAtS"`
	// FeasibleAtS is the smallest grid capacity where the schedule fits
	// (== MinMemoryElements, which the grid contains exactly).
	FeasibleAtS int64 `json:"feasibleAtS"`
	// Points samples the frontier over the capacity grid, ascending.
	Points []FrontierPoint `json:"points"`
}

// ProblemFrontier is the full frontier of one problem: the closed-form
// knee capacities and every schedule's curve over a shared grid.
type ProblemFrontier struct {
	FrontierProblem
	// Thresholds are the closed-form knee capacities for (N, Sym).
	Thresholds lb.Thresholds `json:"thresholds"`
	// Grid is the shared capacity grid (elements), strictly increasing.
	Grid []int64 `json:"grid"`
	// Schedules holds one curve per schedule, in frontierSchemes order.
	Schedules []ScheduleFrontier `json:"schedules"`
}

// FrontierReport is the schema-versioned FRONTIER_fouridx.json payload.
// Equal inputs encode byte-identically (struct-order JSON, deterministic
// grid, no map iteration anywhere on the emission path).
type FrontierReport struct {
	// SchemaVersion is FrontierSchemaVersion at write time.
	SchemaVersion int `json:"schemaVersion"`
	// Problems holds one frontier per configured problem.
	Problems []ProblemFrontier `json:"problems"`
}

// Encode writes the report as indented JSON. encoding/json emits struct
// fields in declaration order and formats floats deterministically, so
// equal reports encode byte-identically (the golden test pins this).
func (r *FrontierReport) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// DecodeFrontier reads a report written by FrontierReport.Encode.
func DecodeFrontier(rd io.Reader) (*FrontierReport, error) {
	var r FrontierReport
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("fourindex: decoding frontier report: %w", err)
	}
	return &r, nil
}

// frontierScheme binds a schedule to its fusion configuration and
// minimum-memory model. Hybrid is a driver over unfused and
// fullyfused-inner rather than a schedule of its own, and Recompute
// trades arithmetic for memory rather than moving along the
// data-movement frontier, so neither carries a curve.
type frontierScheme struct {
	scheme Scheme
	config lb.FusionConfig
	// minMemory is the schedule's memory model at its smallest tile
	// width, in elements.
	minMemory func(n, s int) int64
	// memoryAt is the schedule's memory model at fused-loop tile width
	// tl, in elements; nil when the schedule has no tile-width knob.
	memoryAt func(n, s, tl int) int64
}

// frontierSchemes lists the schedules on the frontier, in the fixed
// order the artifact emits them.
func frontierSchemes() []frontierScheme {
	cfg := func(groups ...[]int) lb.FusionConfig { return lb.FusionConfig{Groups: groups} }
	return []frontierScheme{
		{Unfused, cfg([]int{1}, []int{2}, []int{3}, []int{4}),
			lb.MemoryUnfused, nil},
		{Fused1234Pair, cfg([]int{1, 2}, []int{3, 4}),
			lb.MemoryFused12_34, nil},
		{NWChemFused, cfg([]int{1, 2}, []int{3, 4}),
			lb.MemoryFused12_34, nil},
		{Fused123, cfg([]int{1, 2, 3}, []int{4}),
			func(n, s int) int64 { return lb.MemoryFused123(n, s, 1) }, lb.MemoryFused123},
		{FullyFused, cfg([]int{1, 2, 3, 4}),
			func(n, s int) int64 { return lb.MemoryFused1234(n, s, 1) }, lb.MemoryFused1234},
		{FullyFusedInner, cfg([]int{1, 2, 3, 4}),
			func(n, s int) int64 { return lb.MemoryFused1234Inner(n, s, 1) }, lb.MemoryFused1234Inner},
	}
}

// RunFrontier sweeps every schedule's memory model and lower bound over
// a deterministic capacity grid for each problem and returns the
// frontier report. A nil or empty problem list selects
// DefaultFrontierProblems. The grid is lb.CapacityGrid plus every
// schedule's feasibility edge, so both kinds of knee — bound flattening
// and memory fitting — land on exact grid points.
func RunFrontier(problems []FrontierProblem) *FrontierReport {
	if len(problems) == 0 {
		problems = DefaultFrontierProblems()
	}
	rep := &FrontierReport{SchemaVersion: FrontierSchemaVersion}
	for _, p := range problems {
		rep.Problems = append(rep.Problems, computeProblemFrontier(p))
	}
	return rep
}

// computeProblemFrontier builds one problem's frontier.
func computeProblemFrontier(p FrontierProblem) ProblemFrontier {
	schemes := frontierSchemes()
	grid := lb.CapacityGrid(p.N, p.Sym, 0)
	for _, fs := range schemes {
		grid = append(grid, fs.minMemory(p.N, p.Sym))
	}
	sort.Slice(grid, func(i, j int) bool { return grid[i] < grid[j] })
	dedup := grid[:0]
	var prev int64 = -1
	for _, v := range grid {
		if v != prev {
			dedup = append(dedup, v)
			prev = v
		}
	}
	grid = dedup

	pf := ProblemFrontier{
		FrontierProblem: p,
		Thresholds:      lb.ThresholdsFor(p.N, p.Sym),
		Grid:            grid,
	}
	sz := sym.ExactSizes(p.N, p.Sym)
	for _, fs := range schemes {
		sf := ScheduleFrontier{
			Scheme:            fs.scheme.String(),
			Config:            fs.config.String(),
			FloorElements:     lb.ConfigIO(fs.config, sz),
			MinMemoryElements: fs.minMemory(p.N, p.Sym),
			Points:            make([]FrontierPoint, 0, len(grid)),
		}
		floor := float64(sf.FloorElements)
		for _, S := range grid {
			pt := FrontierPoint{
				S:             S,
				Feasible:      S >= sf.MinMemoryElements,
				BoundElements: lb.ConfigBoundAt(fs.config, p.N, p.Sym, S),
			}
			if sf.FlatAtS == 0 && pt.BoundElements <= floor {
				sf.FlatAtS = S
			}
			if sf.FeasibleAtS == 0 && pt.Feasible {
				sf.FeasibleAtS = S
			}
			sf.Points = append(sf.Points, pt)
		}
		pf.Schedules = append(pf.Schedules, sf)
	}
	return pf
}

// FrontierCandidate is one schedule's frontier analysis at the capacity
// the tuner planned for.
type FrontierCandidate struct {
	// Scheme is the analysed schedule.
	Scheme Scheme
	// Config is its fusion configuration in op-notation.
	Config string
	// BoundElements is the I/O lower bound at the planned capacity.
	BoundElements float64
	// MinMemoryElements is the schedule's feasibility edge.
	MinMemoryElements int64
	// Feasible reports whether the schedule fits the memory constraint
	// the run enforces (Options.GlobalMemBytes; always true when the
	// run is uncapped, matching Run's own refusal behaviour).
	Feasible bool
	// LowerBoundSeconds is the machine-aware time floor:
	// max(flop bound / machine flop rate, byte bound / machine injection
	// bandwidth). No configuration of the schedule can simulate faster.
	LowerBoundSeconds float64
	// Shortlisted reports whether the schedule was cost-simulated:
	// either it survived the tolerance cut, or the soundness pass
	// rescued it because its time floor undercut the incumbent's
	// simulated time.
	Shortlisted bool
	// SuggestedTileL is the largest fused-loop tile width the
	// schedule's memory model admits at the planned capacity — where
	// the frontier says the A-slab re-read factor n/Tl is smallest
	// (0 when the schedule has no tile-width knob, or none fits).
	SuggestedTileL int
}

// FrontierTune is the outcome of the frontier-driven tuner.
type FrontierTune struct {
	// CapacityElements is the fast-memory capacity S the tuner planned
	// for (the memory cap, or the machine's aggregate memory).
	CapacityElements int64
	// Tolerance is the shortlist cut actually applied.
	Tolerance float64
	// Candidates holds every analysed schedule in scheme order.
	Candidates []FrontierCandidate
	// Points are the cost-simulated shortlist configurations, sorted
	// fastest-first with the deterministic tie-break.
	Points []TunePoint
	// Pick is the fastest feasible simulated point.
	Pick TunePoint
	// FullSpace is how many configurations a brute-force Tune of the
	// same space would cost-simulate; Simulated is how many the
	// shortlist actually ran (never more, and strictly fewer whenever
	// a schedule is pruned).
	FullSpace, Simulated int
}

// frontierFlops returns the lower bound on arithmetic for a schedule
// family: the fused schedules pay the Section 7.4 ~1.5x redundancy,
// everything else does the unfused work.
func frontierFlops(scheme Scheme, n int) int64 {
	if scheme == FullyFused || scheme == FullyFusedInner {
		return lb.FlopsFused1234(n)
	}
	return lb.FlopsUnfused(n)
}

// defaultFrontierTolerance is the shortlist cut applied when the caller
// passes a non-positive tolerance: generous enough that every schedule
// whose time floor is within 50% of the best attainable gets simulated,
// which is what keeps the tuner's pick at least as good as the
// brute-force sweep's on every benchmarked point (the CI gate).
const defaultFrontierTolerance = 0.5

// TuneFrontier is the frontier-driven autotuner: instead of
// cost-simulating the whole configuration space (Tune), it evaluates
// each schedule's data-movement lower bound at the machine's actual
// capacity S, converts bound and flop floor into a per-schedule
// lower-bound time under the machine model, shortlists the schedules
// within tolerance of the best attainable floor, and cost-simulates
// only the shortlist — Options' own tiling knobs join the candidate
// grid, and each fused candidate additionally reports the largest
// fused-loop width its memory model admits (SuggestedTileL).
//
// A non-positive tolerance selects the default 0.5. The space's Overlaps
// axis defaults to {false, true} here (unlike Tune's historical
// blocking-only default): the frontier pick must beat the benchmark
// matrix's overlap points too.
//
// TuneFrontier never cancels; TuneFrontierContext adds cooperative
// cancellation.
func TuneFrontier(opt Options, space TuneSpace, tolerance float64) (*FrontierTune, error) {
	return TuneFrontierContext(context.Background(), opt, space, tolerance)
}

// TuneFrontierContext is TuneFrontier with cooperative cancellation:
// the shortlist simulation polls ctx before every simulate point,
// returning an error wrapping ErrCanceled — never a partial analysis —
// once ctx is done.
func TuneFrontierContext(ctx context.Context, opt Options, space TuneSpace, tolerance float64) (*FrontierTune, error) {
	if opt.Run == nil {
		return nil, fmt.Errorf("fourindex: TuneFrontier needs a machine model (Options.Run)")
	}
	if tolerance <= 0 {
		tolerance = defaultFrontierTolerance
	}
	n, s := opt.Spec.N, opt.Spec.S
	if len(space.Overlaps) == 0 {
		space.Overlaps = []bool{false, true}
	}
	space = space.withDefaults(n)
	space.TileNs = appendKnob(space.TileNs, opt.TileN)
	space.TileLs = appendKnob(space.TileLs, opt.TileL)
	space.AlphaPars = appendKnob(space.AlphaPars, opt.AlphaPar)
	space.LPars = appendKnob(space.LPars, opt.LPar)

	// Bounds are evaluated at the capacity the run actually has: the
	// explicit cap when one is set, else the machine's aggregate memory.
	// Feasibility pruning honours only the enforced cap — an uncapped
	// run refuses nothing (Run reports oversubscription through
	// PeakGlobalBytes instead), so the tuner must not drop schedules
	// the benchmark would happily simulate.
	capElems := opt.GlobalMemBytes / 8
	enforced := capElems > 0
	if !enforced {
		capElems = opt.Run.AggregateMemBytes() / 8
	}
	// A byte budget under one element, or a machine model with no
	// memory, leaves no capacity to bound against — surface the typed
	// capacity error instead of reaching lb's non-positive-S panic.
	if err := chain.CheckCapacity(capElems); err != nil {
		return nil, fmt.Errorf("fourindex: frontier tuner: %w", err)
	}

	flopRate := opt.Run.FlopsPerSecPerRank() * float64(opt.Run.Ranks)
	netRate := opt.Run.NetBytesPerSecPerRank() * float64(opt.Run.Ranks)

	ft := &FrontierTune{
		CapacityElements: capElems,
		Tolerance:        tolerance,
		FullSpace:        space.size(),
	}

	// Walk the frontier at S: per-schedule bound, feasibility, time floor.
	byScheme := map[Scheme]frontierScheme{}
	bestFloor := math.Inf(1)
	for _, fs := range frontierSchemes() {
		byScheme[fs.scheme] = fs
	}
	for _, scheme := range space.Schemes {
		fs, ok := byScheme[scheme]
		if !ok {
			return nil, fmt.Errorf("fourindex: scheme %v has no frontier model", scheme)
		}
		cand := FrontierCandidate{
			Scheme:            scheme,
			Config:            fs.config.String(),
			BoundElements:     lb.ConfigBoundAt(fs.config, n, s, capElems),
			MinMemoryElements: fs.minMemory(n, s),
		}
		cand.Feasible = !enforced || cand.MinMemoryElements <= capElems
		if fs.memoryAt != nil {
			cand.SuggestedTileL = maxFeasibleTileL(fs.memoryAt, n, s, capElems)
		}
		compute := float64(frontierFlops(scheme, n)) / flopRate
		comm := 8 * cand.BoundElements / netRate
		cand.LowerBoundSeconds = math.Max(compute, comm)
		if cand.Feasible && cand.LowerBoundSeconds < bestFloor {
			bestFloor = cand.LowerBoundSeconds
		}
		ft.Candidates = append(ft.Candidates, cand)
	}
	if math.IsInf(bestFloor, 1) {
		return ft, fmt.Errorf("fourindex: no schedule fits capacity of %d elements (S < |C| + slabs; Theorem 6.2 forbids disk-free execution)", capElems)
	}

	// Initial shortlist: every feasible schedule within tolerance of the
	// best attainable time floor gets simulated.
	var shortlist []Scheme
	for i := range ft.Candidates {
		c := &ft.Candidates[i]
		if c.Feasible && c.LowerBoundSeconds <= bestFloor*(1+tolerance) {
			c.Shortlisted = true
			shortlist = append(shortlist, c.Scheme)
		}
	}

	pts, err := sweepConfigs(ctx, opt, space, shortlist)
	if err != nil {
		return nil, err
	}
	ft.Points = pts

	// Soundness pass (branch and bound): lower bounds flatter fused
	// schedules more than the cost model does, so the tolerance cut
	// alone could drop the true winner. A schedule whose lower-bound
	// time is below the incumbent's *simulated* time could still win —
	// simulate it too, cheapest floor first, until every unsimulated
	// schedule's floor exceeds the incumbent. A pruned schedule provably
	// cannot beat the incumbent (its every configuration simulates no
	// faster than its floor), so the pick is never worse than a full
	// Tune sweep of the same space.
	for {
		incumbent := math.Inf(1)
		for _, p := range ft.Points {
			if p.Err == "" && p.Seconds < incumbent {
				incumbent = p.Seconds
			}
		}
		next := -1
		for i, c := range ft.Candidates {
			if c.Shortlisted || !c.Feasible || c.LowerBoundSeconds > incumbent {
				continue
			}
			if next < 0 || c.LowerBoundSeconds < ft.Candidates[next].LowerBoundSeconds {
				next = i
			}
		}
		if next < 0 {
			break
		}
		ft.Candidates[next].Shortlisted = true
		rescued, err := sweepConfigs(ctx, opt, space, []Scheme{ft.Candidates[next].Scheme})
		if err != nil {
			return nil, err
		}
		ft.Points = append(ft.Points, rescued...)
	}

	ft.Simulated = len(ft.Points)
	sortTunePoints(ft.Points)
	pick, ok := Best(ft.Points)
	if !ok {
		return ft, fmt.Errorf("fourindex: no feasible configuration in the frontier shortlist")
	}
	ft.Pick = pick
	return ft, nil
}

// appendKnob adds the caller's own knob value to a candidate list when
// it is set and not already present.
func appendKnob(vals []int, v int) []int {
	if v <= 0 {
		return vals
	}
	for _, x := range vals {
		if x == v {
			return vals
		}
	}
	return append(vals, v)
}

// maxFeasibleTileL binary-searches the largest fused-loop tile width
// whose memory model fits capElems elements; 0 when even tl = 1 does
// not fit.
func maxFeasibleTileL(model func(n, s, tl int) int64, n, s int, capElems int64) int {
	lo, hi := 1, n
	if model(n, s, 1) > capElems {
		return 0
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if model(n, s, mid) <= capElems {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}
