// Package fourindex is a from-scratch reproduction of "Optimizing the
// Four-Index Integral Transform Using Data Movement Lower Bounds
// Analysis" (Rajbhandari, Rastello, Kowalski, Krishnamoorthy,
// Sadayappan — PPoPP 2017).
//
// It provides:
//
//   - Transform: the four-index integral transform C = B B B B A over a
//     simulated Global-Arrays cluster, as any of the paper's schedules —
//     the unfused baseline, the op12/34 fusion, the minimal-memory
//     direct method, the fully fused Listing 8/10 algorithms, and the
//     Section 7.4 fuse/unfuse hybrid. Schedules run with real arithmetic
//     (ModeExecute, for verification at small extents) or as exact
//     data-movement/cost simulations (ModeCost, at molecule scale).
//
//   - The lower-bounds toolkit of Sections 4-6: matrix-multiplication
//     I/O lower bounds, the Fusion Lemma, fusion-configuration ranking
//     (Theorem 5.2), the full-reuse condition S >= |C| (Theorem 6.2),
//     memory and communication formulas, and the Advise planner.
//
//   - The red-blue pebble game (Appendix A) on computational DAGs for
//     empirically validating the bounds.
//
//   - The paper's complete evaluation (Figure 2) as runnable
//     simulations over machine models of its three clusters.
//
// The deeper implementation lives under internal/; this package is the
// stable façade the examples and benchmarks are written against.
package fourindex

import (
	"io"

	"fourindex/internal/chem"
	"fourindex/internal/cluster"
	"fourindex/internal/experiments"
	"fourindex/internal/faults"
	ifx "fourindex/internal/fourindex"
	"fourindex/internal/ga"
	"fourindex/internal/lb"
	"fourindex/internal/lb/chain"
	"fourindex/internal/perf"
	"fourindex/internal/scf"
	"fourindex/internal/sym"
	"fourindex/internal/trace"
)

// Scheme selects a transform schedule.
type Scheme = ifx.Scheme

// The implemented schedules (see the paper sections in parentheses).
const (
	// Unfused is the four-separate-contractions baseline (Listing 1).
	Unfused = ifx.Unfused
	// Fused1234Pair fuses op1+op2 and op3+op4 at full size (Listing 9).
	Fused1234Pair = ifx.Fused1234Pair
	// Recompute is the minimal-memory direct method (Listing 3).
	Recompute = ifx.Recompute
	// FullyFused fuses loop l across all contractions (Listing 8).
	FullyFused = ifx.FullyFused
	// FullyFusedInner adds the inner op12/34 fusion (Listing 10) —
	// the paper's contributed implementation.
	FullyFusedInner = ifx.FullyFusedInner
	// Hybrid picks Unfused or FullyFusedInner by memory (Section 7.4).
	Hybrid = ifx.Hybrid
	// NWChemFused models the production NWChem fused baseline.
	NWChemFused = ifx.NWChemFused
	// Fused123 is the op123/4 configuration — implemented to make
	// Theorem 5.2's "three-way fusion does not help" measurable.
	Fused123 = ifx.Fused123
)

// SchemeByName resolves a scheme from its name ("unfused", "hybrid", ...).
func SchemeByName(name string) (Scheme, error) { return ifx.SchemeByName(name) }

// Mode selects real execution or cost-only simulation.
type Mode = ga.Mode

// Execution modes.
const (
	// ModeExecute runs real arithmetic and returns the packed C tensor.
	ModeExecute = ga.Execute
	// ModeCost runs the same schedules, accounting data movement,
	// memory and simulated time only.
	ModeCost = ga.Cost
)

// Options configures a transform run; Result reports it.
type (
	Options = ifx.Options
	Result  = ifx.Result
)

// PackedC is the permutation-symmetric packed output tensor.
type PackedC = sym.PackedC

// Transform runs the four-index integral transform with the given
// schedule.
func Transform(scheme Scheme, opt Options) (*Result, error) { return ifx.Run(scheme, opt) }

// Spec describes a synthetic electronic-structure problem: orbital
// count, spatial-symmetry order, and generator seed. Build one with
// NewSpec; Transform rejects a Spec literal with a *SpecError.
type Spec = chem.Spec

// SpecError reports a Spec that NewSpec did not make, or whose N or S
// changed after NewSpec made it.
type SpecError = chem.SpecError

// NewSpec validates and builds a Spec.
func NewSpec(orbitals, spatialSymmetry int, seed uint64) (Spec, error) {
	return chem.NewSpec(orbitals, spatialSymmetry, seed)
}

// Molecule is a benchmark system from the paper's evaluation.
type Molecule = chem.Molecule

// Molecules returns the paper's five benchmark molecules.
func Molecules() []Molecule { return chem.Catalog }

// MoleculeByName looks up a benchmark molecule.
func MoleculeByName(name string) (Molecule, error) { return chem.ByName(name) }

// Machine and Run describe simulated clusters.
type (
	Machine = cluster.Machine
	Run     = cluster.Run
)

// The paper's three evaluation platforms (Section 8).
var (
	SystemA = cluster.SystemA
	SystemB = cluster.SystemB
	SystemC = cluster.SystemC
)

// MachineByName resolves "A"/"B"/"C" (or SystemA/B/C).
func MachineByName(name string) (Machine, error) { return cluster.ByName(name) }

// Advice is the Section 7.4 fuse/unfuse decision.
type Advice = lb.Advice

// Advise picks between the unfused and fused implementations for extent
// n with spatial symmetry s under the given aggregate memory.
func Advise(n, s int, globalMemBytes int64) Advice { return lb.Advise(n, s, globalMemBytes) }

// FusionConfig is a grouping of the four contractions (op12/34, ...).
type FusionConfig = lb.FusionConfig

// RankedConfig pairs a fusion configuration with its I/O lower bound.
type RankedConfig = lb.RankedConfig

// RankFusionConfigs orders all eight fusion configurations by their
// Section 5.3 I/O lower bounds for extent n with spatial symmetry s,
// realising the Theorem 5.2 total order.
func RankFusionConfigs(n, s int) []RankedConfig {
	return lb.RankConfigs(sym.ExactSizes(n, s))
}

// FusionLemma is Lemma 4.2: a fused producer-consumer pair moves at
// least lb1 + lb2 - 2|intermediate| elements.
func FusionLemma(lb1, lb2 float64, intermediate int64) float64 {
	return chain.FusionLemma(lb1, lb2, intermediate)
}

// DongarraMatmulLB is the matrix-multiplication I/O lower bound used
// throughout the paper: 1.73 ni nj nk / sqrt(S). It panics on a
// non-positive S.
func DongarraMatmulLB(ni, nj, nk, s int64) float64 {
	if err := chain.CheckCapacity(s); err != nil {
		panic("fourindex: " + err.Error())
	}
	return chain.Dongarra(ni, nj, nk, s)
}

// FullReusePossible is Theorem 6.2: I/O = |A|+|C| is achievable iff the
// fast memory holds the output tensor.
func FullReusePossible(s, sizeC int64) bool { return lb.FullReusePossible(s, sizeC) }

// TensorSizes holds the element counts of Table 1.
type TensorSizes = sym.Sizes

// Sizes returns the exact packed tensor sizes for extent n with spatial
// symmetry s (Table 1).
func Sizes(n, s int) TensorSizes { return sym.ExactSizes(n, s) }

// UnfusedMemoryWords returns the peak live elements of the unfused
// schedule, ~3n^4/4 (Section 2.2).
func UnfusedMemoryWords(n, s int) int64 { return lb.MemoryUnfused(n, s) }

// Figure2Point is one bar group of the paper's Figure 2; Figure2Outcome
// its simulated result.
type (
	Figure2Point   = experiments.Point
	Figure2Outcome = experiments.Outcome
)

// Figure2 returns the paper's full evaluation matrix.
func Figure2() []Figure2Point { return experiments.Figure2() }

// RunFigure2Point simulates one evaluation point.
func RunFigure2Point(pt Figure2Point) (Figure2Outcome, error) { return experiments.RunPoint(pt) }

// RunFigure2 simulates one sub-figure ("2a".."2e") or, with "", all of
// Figure 2.
func RunFigure2(fig string) ([]Figure2Outcome, error) { return experiments.RunFigure(fig) }

// Tracer records a transform run as phase spans and per-operation
// events (see internal/trace). Attach one via Options.Trace, then
// export with its WriteChromeTrace (Chrome/Perfetto trace_event JSON)
// or join phases against the paper's lower bounds with Audit. A nil
// *Tracer disables tracing at zero cost.
type Tracer = trace.Tracer

// NewTracer builds an enabled execution tracer whose event ring holds
// capacity events (<= 0 selects a default of 32768).
func NewTracer(capacity int) *Tracer { return trace.New(capacity) }

// TraceAuditRow is one line of the bound-vs-actual audit: a schedule
// phase joined against its lower-bound prediction with the attained
// fraction.
type TraceAuditRow = trace.AuditRow

// WriteTraceAuditTable renders audit rows as an aligned text table.
func WriteTraceAuditTable(w io.Writer, rows []TraceAuditRow) error {
	return trace.WriteAuditTable(w, rows)
}

// RunFigure2PointTraced simulates one evaluation point with an
// execution tracer attached to the hybrid run.
func RunFigure2PointTraced(pt Figure2Point, tr *Tracer) (Figure2Outcome, error) {
	return experiments.RunPointTraced(pt, tr)
}

// ReferencePacked computes C with the sequential packed algorithm —
// the ground truth for verification at small extents.
func ReferencePacked(spec Spec) *PackedC { return ifx.ReferencePacked(spec) }

// TunePoint and TuneSpace parametrise the brute-force configuration
// sweep; Tune runs it (cost mode, machine model required) and returns
// points sorted fastest-first.
type (
	TunePoint = ifx.TunePoint
	TuneSpace = ifx.TuneSpace
)

// MP2Energy evaluates the MP2 correlation energy from a transformed
// integral tensor — the transform's canonical consumer.
func MP2Energy(c *PackedC, orbitalEnergies []float64, nOcc int) (float64, error) {
	return chem.MP2Energy(c, orbitalEnergies, nOcc)
}

// SCFOptions tunes the Hartree-Fock solver; SCFResult is its converged
// state, with coefficients in the transform's B[mo, ao] layout.
type (
	SCFOptions = scf.Options
	SCFResult  = scf.Result
)

// RHF runs the restricted Hartree-Fock solver on the spec's synthetic
// integrals — the upstream producer of the transformation matrix B.
func RHF(spec Spec, nOcc int, opt SCFOptions) (SCFResult, error) {
	return scf.RHF(spec, nOcc, opt)
}

// Tune sweeps schedule configurations in simulation — the exhaustive
// search the paper's lower-bound analysis replaces.
func Tune(opt Options, space TuneSpace) ([]TunePoint, error) { return ifx.Tune(opt, space) }

// BestTunePoint returns the fastest feasible point of a sorted sweep.
func BestTunePoint(points []TunePoint) (TunePoint, bool) { return ifx.Best(points) }

// FaultPlan is a seeded, deterministic fault-injection plan for the GA
// runtime: transient Get/Put/Acc failures at a configured rate, an
// optional one-shot process crash, a straggler and late out-of-memory
// pressure. The zero plan injects nothing.
type FaultPlan = faults.Plan

// FaultInjection bundles a FaultPlan with the checkpoint store and the
// restart budget a transform run uses to recover from injected crashes.
// Attach one via Options.Faults.
type FaultInjection = faults.Injection

// Checkpoint is the store schedules record completed l-slabs and stages
// in, and resume from after a crash.
type Checkpoint = faults.Checkpoint

// NewMemCheckpoint returns an in-memory Checkpoint store.
func NewMemCheckpoint() Checkpoint { return faults.NewMemCheckpoint() }

// RandomFaultPlan derives a reproducible fault plan from a seed:
// transient faults at the given rate, plus (on half of all seeds) a
// crash point somewhere in the first run.
func RandomFaultPlan(seed uint64, rate float64, procs int) *FaultPlan {
	return faults.RandomPlan(seed, rate, procs)
}

// FaultInjected reports whether err originates from an injected fault
// (as opposed to a genuine schedule error).
func FaultInjected(err error) bool { return faults.Injected(err) }

// FaultSummary aggregates a traced run's fault events: injected
// crash/exhaustion faults, absorbed transient retries, checkpoint
// restarts and hybrid degradations.
type FaultSummary = trace.FaultSummary

// TraceFaultSummary extracts the fault summary from a run's tracer.
func TraceFaultSummary(tr *Tracer) FaultSummary { return tr.FaultSummary() }

// WriteFaultSummary renders a fault summary as text.
func WriteFaultSummary(w io.Writer, s FaultSummary) error { return trace.WriteFaultSummary(w, s) }

// Benchmark harness (internal/perf): a fixed, reproducible matrix of
// {schedule} x {execute sizes, cost molecules} x {GOMAXPROCS}, with
// deterministic accounting always and wall-clock measurement on demand,
// plus the regression gate CI runs against the checked-in baseline.
type (
	BenchConfig       = perf.Config
	BenchExecutePoint = perf.ExecutePoint
	BenchCostPoint    = perf.CostPoint
	BenchPoint        = perf.Point
	BenchMeasured     = perf.Measured
	BenchReport       = perf.Report
	BenchReadPath     = perf.ReadPathResult
)

// DefaultBenchConfig is the full matrix behind BENCH_fouridx.json;
// SmokeBenchConfig the CI-sized strict subset of it.
func DefaultBenchConfig() BenchConfig { return perf.DefaultConfig() }

// SmokeBenchConfig returns the smoke matrix (see DefaultBenchConfig).
func SmokeBenchConfig() BenchConfig { return perf.SmokeConfig() }

// RunBench executes a benchmark matrix.
func RunBench(cfg BenchConfig) (*BenchReport, error) { return perf.Run(cfg) }

// DecodeBenchReport reads a report written by BenchReport.Encode.
func DecodeBenchReport(r io.Reader) (*BenchReport, error) { return perf.Decode(r) }

// BenchGate compares a report against a baseline: deterministic metrics
// within tolerance, wall times within tolerance after median-ratio
// machine normalisation. Returns the violations found (empty = pass).
func BenchGate(cur, base *BenchReport, tolerance float64) ([]string, error) {
	return perf.Gate(cur, base, tolerance)
}

// BenchReadPathRun measures the frozen (lock-free) vs mutable (RWMutex)
// GetT read paths on one shared tile.
func BenchReadPathRun(procs, readsPerProc, dim int) (BenchReadPath, error) {
	return perf.BenchReadPath(procs, readsPerProc, dim)
}

// Capacity-vs-bound frontier (internal/lb + internal/fourindex): for
// every fast-memory capacity S there is a data-movement lower bound,
// and the paper's closed-form thresholds are the knees where each
// schedule's curve flattens onto its memory-independent floor. The
// frontier engine sweeps S over a deterministic grid, the artifact
// (FRONTIER_fouridx.json) pins the curves byte-for-byte, and the
// frontier tuner shortlists schedules by their bound before simulating.
type (
	// FrontierProblem names one (n, s) problem a frontier covers.
	FrontierProblem = ifx.FrontierProblem
	// FrontierPoint is one capacity sample of a schedule's curve.
	FrontierPoint = ifx.FrontierPoint
	// ScheduleFrontier is one schedule's capacity-vs-bound curve.
	ScheduleFrontier = ifx.ScheduleFrontier
	// ProblemFrontier is one problem's full frontier across schedules.
	ProblemFrontier = ifx.ProblemFrontier
	// FrontierReport is the schema-versioned FRONTIER_fouridx.json shape.
	FrontierReport = ifx.FrontierReport
	// FrontierCandidate is one schedule's frontier analysis in a tune.
	FrontierCandidate = ifx.FrontierCandidate
	// FrontierTuneResult is the frontier-driven tuner's outcome.
	FrontierTuneResult = ifx.FrontierTune
	// KneeCapacities collects the paper's closed-form threshold
	// capacities for one problem.
	KneeCapacities = lb.Thresholds
)

// DefaultFrontierProblems returns the problems behind the checked-in
// FRONTIER_fouridx.json artifact.
func DefaultFrontierProblems() []FrontierProblem { return ifx.DefaultFrontierProblems() }

// RunFrontier sweeps every schedule's memory model and lower bound over
// a deterministic capacity grid for each problem (nil = the defaults)
// and returns the frontier report; equal inputs encode byte-identically.
func RunFrontier(problems []FrontierProblem) *FrontierReport { return ifx.RunFrontier(problems) }

// DecodeFrontierReport reads a report written by FrontierReport.Encode.
func DecodeFrontierReport(r io.Reader) (*FrontierReport, error) { return ifx.DecodeFrontier(r) }

// KneesFor returns the closed-form knee capacities (S >= n^2+n+1,
// S >= 3n^2+n+1, S >= |C|, ...) for extent n with spatial symmetry s.
func KneesFor(n, s int) KneeCapacities { return lb.ThresholdsFor(n, s) }

// TuneFrontier is the frontier-driven autotuner: it evaluates each
// schedule's lower bound at the run's capacity, shortlists the schedules
// whose machine-aware time floor is within tolerance (<= 0 selects the
// default) of the best attainable, cost-simulates only the shortlist —
// rescuing any pruned schedule whose floor undercuts the incumbent's
// simulated time, so the pick is never worse than a full Tune sweep —
// and returns the analysis alongside the winning configuration.
func TuneFrontier(opt Options, space TuneSpace, tolerance float64) (*FrontierTuneResult, error) {
	return ifx.TuneFrontier(opt, space, tolerance)
}

// FrontierGateResult is one cost point's frontier-tuner check against
// the benchmark baseline.
type FrontierGateResult = perf.TunerGateResult

// FrontierTunerGate checks the frontier tuner against the checked-in
// benchmark baseline: at every cost point the tuner's pick must simulate
// at least as fast as the fastest schedule the benchmark recorded there.
// Returns the per-point results and the violations found (empty = pass).
func FrontierTunerGate(base *BenchReport) ([]FrontierGateResult, []string, error) {
	return perf.TunerGate(base)
}

// FaultSweepRow is one row of the fault-injection sweep: the observed
// completion/recovery behaviour of a schedule at one transient rate.
type FaultSweepRow = experiments.FaultSweepRow

// RunFaultSweep sweeps fault rates over seeded plans in cost mode,
// measuring success rate, retries, restarts and checkpoint I/O overhead.
func RunFaultSweep(scheme Scheme, rates []float64, seedsPerRate int) ([]FaultSweepRow, error) {
	return experiments.RunFaultSweep(scheme, rates, seedsPerRate)
}

// Chain is a declarative contraction chain: named boundary tensors
// around a sequence of matmul-shaped contractions. The bound engine
// derives per-op lower bounds, fusion rankings, capacity thresholds and
// frontier curves for any Chain — the four-index transform is just the
// built-in instance.
type Chain = chain.Chain

// ChainTensor is one boundary tensor of a Chain.
type ChainTensor = chain.Tensor

// ChainContraction is one matmul-shaped contraction of a Chain.
type ChainContraction = chain.Contraction

// ChainConfig is a fusion configuration over a Chain's contractions.
type ChainConfig = chain.Config

// ChainThresholds are the derived regime-change capacities of a Chain.
type ChainThresholds = chain.Thresholds

// ChainReport is the engine's full analysis of one Chain.
type ChainReport = ifx.ChainReport

// FourIndexChain builds the paper's four-index transform as a Chain:
// the engine derives from it exactly the hand-proved Section 4-6
// numbers (bounds, thresholds, rankings, curves).
func FourIndexChain(n, s int) (*Chain, error) { return chain.FourIndex(n, s) }

// MP2Chain builds the two-contraction MP2-style half-transform
// AO -> half-transformed -> MO for occ occupied and virt virtual
// orbitals.
func MP2Chain(occ, virt int) (*Chain, error) { return chain.MP2(occ, virt) }

// RectChain builds the rectangular two-matmul chain E = (A B) C with
// A of shape n x k, matching the cdag.BuildRectChain pebble-game DAG.
func RectChain(n, k int) (*Chain, error) { return chain.Rect(n, k) }

// ChainByName builds a named built-in chain ("fourindex", "mp2",
// "rect") from its two extent arguments.
func ChainByName(name string, a, b int) (*Chain, error) { return chain.ByName(name, a, b) }

// AnalyzeChain runs the bound engine over a chain: validation,
// thresholds, fusion-configuration ranking, frontier curves, and — when
// capacityElements > 0 — per-configuration bounds and feasibility at
// that capacity. Errors are typed, never panics.
func AnalyzeChain(c *Chain, capacityElements int64, perDecade int) (*ChainReport, error) {
	return ifx.AnalyzeChain(c, capacityElements, perDecade)
}

// WriteChainReport renders a ChainReport as aligned text tables.
func WriteChainReport(w io.Writer, rep *ChainReport) error { return ifx.WriteChainReport(w, rep) }
