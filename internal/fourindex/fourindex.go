// Package fourindex implements the four-index integral transform
//
//	C[a,b,c,d] = sum_{i,j,k,l} A[i,j,k,l] B[a,i] B[b,j] B[c,k] B[d,l]
//
// as the paper's executable parallel schedules over the Global Arrays
// runtime (package ga):
//
//	Unfused        - Listing 1/4: four separate tiled contractions with
//	                 full intermediates (the memory-hungry baseline).
//	Fused1234Pair  - Listing 2/9: op12/34, the first two and last two
//	                 contractions fused at full problem size with the
//	                 Section 7.3 communication-avoiding mapping.
//	Recompute      - Listing 3's direct method: slab-local computation
//	                 with on-the-fly integral regeneration, minimal
//	                 memory, redundant work.
//	FullyFused     - Listing 8: loop l fused across all four
//	                 contractions (largest zero-spill problem).
//	FullyFusedInner- Listing 10: outer l fusion plus inner op12/34
//	                 fusion (minimal communication volume) with optional
//	                 alpha-parallelisation and nested l tiling
//	                 (Section 7.3). This is the paper's contributed
//	                 implementation.
//	Hybrid         - Section 7.4: picks Unfused when the intermediates
//	                 fit in aggregate memory, FullyFusedInner otherwise,
//	                 with out-of-memory fallback.
//	NWChemFused    - the production baseline: Listing 2's memory profile
//	                 without the comm-avoiding mapping, per-row DGEMM
//	                 kernel efficiency.
//	Fused123       - the op123/4 configuration, implemented to make
//	                 Theorem 5.2's dominance argument measurable.
//
// Every schedule runs in ga.Execute mode (real arithmetic, small
// extents, verified against dense references) or ga.Cost mode (identical
// control flow and data-movement accounting at molecule scale, no
// element data).
package fourindex

import (
	"context"
	"fmt"

	"fourindex/internal/chem"
	"fourindex/internal/cluster"
	"fourindex/internal/faults"
	"fourindex/internal/ga"
	"fourindex/internal/metrics"
	"fourindex/internal/sym"
	"fourindex/internal/tile"
	"fourindex/internal/trace"
)

// Scheme selects one of the implemented schedules.
type Scheme int

const (
	// Unfused is the Listing 1/4 baseline.
	Unfused Scheme = iota
	// Fused1234Pair is the op12/34 schedule of Listing 2/9.
	Fused1234Pair
	// Recompute is the minimal-memory direct method of Listing 3.
	Recompute
	// FullyFused is the Listing 8 all-four fusion.
	FullyFused
	// FullyFusedInner is Listing 10: the paper's implementation.
	FullyFusedInner
	// Hybrid is the Section 7.4 fuse/unfuse driver.
	Hybrid
	// NWChemFused models NWChem's production fused 12-34 variant:
	// Listing 2's memory profile without the Section 7.3
	// communication-avoiding mapping (O1/O3 chunks round-trip through
	// global memory, chunk-serial parallel structure).
	NWChemFused
	// Fused123 fuses the first three contractions over l and runs op4
	// unfused on the materialised O3 — the op123/4 configuration whose
	// I/O Theorem 5.2 proves strictly worse than op12/34 (|O3| > |O2|).
	// Implemented so the total order is measurable on the simulator.
	Fused123
)

var schemeNames = map[Scheme]string{
	Unfused:         "unfused",
	Fused1234Pair:   "fused12-34",
	Recompute:       "recompute",
	FullyFused:      "fullyfused",
	FullyFusedInner: "fullyfused-inner",
	Hybrid:          "hybrid",
	NWChemFused:     "nwchem-fused12-34",
	Fused123:        "fused123-4",
}

// String names the scheme.
func (s Scheme) String() string {
	if n, ok := schemeNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// SchemeByName resolves a scheme from its name. Schemes are scanned in
// declaration order, not map order, so a (hypothetical) duplicate name
// would resolve the same way on every run.
func SchemeByName(name string) (Scheme, error) {
	for s := Unfused; s <= Fused123; s++ {
		if schemeNames[s] == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("fourindex: unknown scheme %q", name)
}

// Options configures a transform run.
type Options struct {
	// Spec supplies extents, spatial symmetry and integral values.
	Spec chem.Spec
	// Procs is the number of parallel processes.
	Procs int
	// Mode selects real execution or cost simulation.
	Mode ga.Mode
	// Run optionally supplies the machine cost model.
	Run *cluster.Run
	// GlobalMemBytes caps aggregate distributed memory (0 unlimited).
	GlobalMemBytes int64
	// LocalMemBytes caps per-process buffers (0 unlimited).
	LocalMemBytes int64
	// TileN is the orbital-dimension data-tile width (default:
	// ~n/6 in Execute mode, ~n/24 in Cost mode).
	TileN int
	// TileL is the fused outer-loop tile width for the fused schedules
	// (default TileN).
	TileL int
	// AlphaPar is the Section 7.3 alpha-parallelisation factor for
	// FullyFusedInner: work for one k-tile splits over AlphaPar
	// processes at the price of replicating A reads (default 1).
	AlphaPar int
	// LPar processes this many outer l-tiles concurrently in
	// FullyFusedInner — Section 7.3's "nested tiling of l" alternative
	// for increasing parallelism. Memory for the A and O2 slabs grows
	// by the same factor (default 1).
	LPar int
	// Policy distributes data tiles over processes.
	Policy tile.Policy
	// Strict enables read-before-write checking in the GA runtime.
	Strict bool
	// AllowSpill runs out-of-core instead of failing when a tensor
	// exceeds GlobalMemBytes: the overflowing tensor becomes
	// disk-resident and its traffic is charged at the shared
	// file-system bandwidth (the spilling alternative the paper's
	// zero-spill schedules avoid, Section 3).
	AllowSpill bool
	// Trace, when non-nil, records the run as spans and events (see
	// internal/trace): a root span per schedule attempt, one span per
	// phase, and per-operation Get/Put/Acc/Barrier events. Nil disables
	// tracing at zero cost.
	Trace *trace.Tracer
	// Overlap enables the nonblocking communication path: schedules
	// double-buffer tile gets and pipeline tile writes through
	// ga.NbGetT/NbPutT/NbAccT, so transfer time overlaps compute (the
	// ga package's max-vs-sum clock rule). Execute-mode results are
	// bitwise identical with Overlap on or off; Cost mode reports the
	// exposed/overlapped split per phase. Off by default.
	Overlap bool
	// OverlapEfficiency scales how much in-flight transfer time the
	// overlap cost model may hide, in (0, 1]; zero means 1 (full
	// overlap). See ga.Config.OverlapEfficiency.
	OverlapEfficiency float64
	// Faults, when non-nil, runs the transform under the bundled fault
	// plan with checkpoint-restart (see internal/faults): transient
	// Get/Put/Acc faults are retried with backoff, injected crashes
	// restart the schedule from its last completed l-slab or stage
	// (bounded by Faults.MaxRestarts), and the hybrid driver degrades
	// the fused path to plain fully-fused slabs on terminal faults.
	// Nil runs fault-free.
	Faults *faults.Injection

	// ctx carries RunContext's cooperative-cancellation signal into the
	// schedules; nil (the zero Options, and every plain Run call) never
	// cancels. Unexported so keyed Options literals stay source-compatible
	// and callers cannot smuggle a context past RunContext.
	ctx context.Context
}

// withDefaults validates and fills defaults.
func (o Options) withDefaults() (Options, error) {
	if err := o.Spec.Validate(); err != nil {
		return o, fmt.Errorf("fourindex: %w", err)
	}
	if o.Procs <= 0 {
		o.Procs = 1
	}
	if o.TileN <= 0 {
		// ~6 tiles per dimension in Execute mode (real data, small n);
		// ~24 at simulation scale, where finer tiling only slows the
		// simulator without changing the accounting materially.
		div := 6
		if o.Mode == ga.Cost && o.Spec.N >= 240 {
			div = 24
		}
		o.TileN = max(1, o.Spec.N/div)
	}
	if o.TileN > o.Spec.N {
		o.TileN = o.Spec.N
	}
	if o.TileL <= 0 {
		o.TileL = o.TileN
	}
	if o.TileL > o.Spec.N {
		o.TileL = o.Spec.N
	}
	if o.AlphaPar <= 0 {
		o.AlphaPar = 1
	}
	if o.LPar <= 0 {
		o.LPar = 1
	}
	return o, nil
}

// Result reports a completed transform.
type Result struct {
	Scheme Scheme
	// C holds the transformed tensor in Execute mode, nil in Cost mode.
	C *sym.PackedC
	// ElapsedSeconds is the simulated wall time (0 without a cost model).
	ElapsedSeconds float64
	// Totals aggregates flops and traffic over all processes.
	Totals metrics.Snapshot
	// CommVolume is the inter-node elements moved (both directions).
	CommVolume int64
	// IntraVolume is same-node get/put elements moved.
	IntraVolume int64
	// DiskVolume is elements moved to/from disk-resident tensors
	// (nonzero only with Options.AllowSpill under memory pressure).
	DiskVolume int64
	// PeakGlobalBytes is the high-water aggregate-memory footprint.
	PeakGlobalBytes int64
	// ChosenScheme reports what Hybrid actually ran (== Scheme otherwise).
	ChosenScheme Scheme
	// Phases breaks the run down by schedule phase (simulated seconds,
	// flops and traffic per named phase, fused slabs accumulated).
	Phases []ga.PhaseStat
	// IdleFraction is the share of total process-time spent waiting at
	// synchronisation points (load imbalance; 0 without a cost model).
	IdleFraction float64
	// ExposedCommSeconds is transfer time processes waited for;
	// OverlapCommSeconds is transfer time the nonblocking verbs hid
	// behind compute (nonzero only with Options.Overlap). Their sum is
	// the run's total transfer time.
	ExposedCommSeconds float64
	OverlapCommSeconds float64
	// Restarts is how many times the driver rebuilt the runtime and
	// resumed from a checkpoint after an injected crash (0 fault-free).
	Restarts int
}

// Run executes the transform with the given scheme. Under
// Options.Faults, restartable (crash) errors trigger a bounded
// rebuild-and-resume loop: the schedule re-runs against a fresh runtime
// and picks up at the last checkpoint its previous attempt recorded.
// Terminal faults (retry exhaustion) and genuine errors return as-is.
// Run never cancels; RunContext adds cooperative cancellation.
func Run(scheme Scheme, opt Options) (*Result, error) {
	return RunContext(context.Background(), scheme, opt)
}

// runScheme dispatches one attempt of the transform.
func runScheme(scheme Scheme, opt Options) (*Result, error) {
	switch scheme {
	case Unfused:
		return runUnfused(opt)
	case Fused1234Pair:
		return runFusedPair(opt)
	case Recompute:
		return runRecompute(opt)
	case FullyFused:
		return runFullyFused(opt, false)
	case FullyFusedInner:
		return runFullyFused(opt, true)
	case Hybrid:
		return runHybrid(opt)
	case NWChemFused:
		return runNWChemFused(opt)
	case Fused123:
		return runFused123(opt)
	}
	return nil, fmt.Errorf("fourindex: unknown scheme %v", scheme)
}

// integralFlops is the arithmetic charged per atomic-orbital integral
// evaluated by ComputeA. It models a real integral code, which spends
// O(100) flops per primitive integral, not the synthetic generator: the
// charge does not depend on how long the host takes to produce a value.
const integralFlops = 100

// coeffFlops is the arithmetic charged per transformation-matrix element.
const coeffFlops = 1
