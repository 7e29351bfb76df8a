// Command fouridx runs the four-index integral transform with a chosen
// schedule, either executing real arithmetic at small extents or
// simulating data movement and wall time at molecule scale on one of the
// paper's cluster models.
//
// Examples:
//
//	fouridx -n 24 -scheme hybrid -procs 8
//	fouridx -molecule Uracil -scheme fullyfused-inner -system B -cores 140 -cost
//	fouridx -n 16 -scheme unfused -mem 4GB
//
// The trace subcommand additionally records an execution trace and
// prints the bound-vs-actual audit (see README "Tracing & profiling"):
//
//	fouridx trace -n 24 -scheme fullyfused-inner -system A -cores 8 -o trace.json
//
// The chaos subcommand runs a transform under a seeded fault-injection
// plan with checkpoint-restart, reports retries/restarts/degradations,
// and verifies the result against a fault-free run (see README "Chaos
// testing"):
//
//	fouridx chaos -n 18 -scheme fullyfused-inner -procs 4 -rate 0.05 -chaos-seed 7
//
// The bench subcommand runs the reproducible benchmark matrix, writes
// the schema-versioned report, and optionally gates it against a
// checked-in baseline (see README "Benchmarking"):
//
//	fouridx bench -o BENCH_fouridx.json
//	fouridx bench -smoke -baseline BENCH_fouridx.json -tolerance 0.15
//
// The frontier subcommand computes the capacity-vs-bound frontier
// artifact, checks the checked-in copy for staleness, and gates the
// frontier-driven tuner against the benchmark baseline (see README
// "Autotuning"):
//
//	fouridx frontier -o FRONTIER_fouridx.json
//	fouridx frontier -check -o FRONTIER_fouridx.json
//	fouridx frontier -gate -baseline BENCH_fouridx.json
//
// The chains subcommand runs the generalized bound engine over a named
// contraction chain — the four-index transform or the non-four-index
// scenarios — printing thresholds, fusion rankings and capacity pricing
// (see README "Arbitrary chains"):
//
//	fouridx chains -chain mp2 -a 8 -b 24 -cap 100000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"fourindex"
	"fourindex/internal/units"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "trace":
			runTrace(os.Args[2:])
			return
		case "chaos":
			runChaos(os.Args[2:])
			return
		case "bench":
			runBench(os.Args[2:])
			return
		case "frontier":
			runFrontier(os.Args[2:])
			return
		case "chains":
			runChains(os.Args[2:])
			return
		default:
			// A first argument that is not a flag must be a subcommand;
			// anything unrecognised used to fall through and run the
			// default transform silently — reject it instead.
			if len(os.Args[1]) == 0 || os.Args[1][0] != '-' {
				fatalIf(fmt.Errorf("unknown subcommand %q (expected trace, chaos, bench, frontier or chains)", os.Args[1]))
			}
		}
	}
	var (
		n        = flag.Int("n", 16, "orbital count (ignored when -molecule is set)")
		molecule = flag.String("molecule", "", "benchmark molecule (Hyperpolar, C60H20, Uracil, C40H56, Shell-Mixed)")
		scheme   = flag.String("scheme", "hybrid", "schedule: unfused | fused12-34 | recompute | fullyfused | fullyfused-inner | hybrid | nwchem-fused12-34 | fused123-4")
		procs    = flag.Int("procs", 4, "parallel processes (overridden by -cores)")
		spatial  = flag.Int("s", 1, "spatial symmetry order (power of two)")
		seed     = flag.Uint64("seed", 42, "integral generator seed")
		tileN    = flag.Int("tile", 0, "orbital data-tile width (0 = auto)")
		tileL    = flag.Int("tilel", 0, "fused-loop tile width (0 = auto)")
		alphaPar = flag.Int("alphapar", 1, "alpha-parallelisation factor (Section 7.3)")
		cost     = flag.Bool("cost", false, "cost-simulation mode (no arithmetic; required for large n)")
		system   = flag.String("system", "", "cluster model A | B | C (enables simulated timing)")
		cores    = flag.Int("cores", 0, "cores on the cluster model (with -system)")
		rpn      = flag.Int("ranks-per-node", 0, "ranks per node (0 = one per core)")
		mem      = flag.String("mem", "", "aggregate memory cap, e.g. 512MB, 9TB (empty = unlimited)")
		overlap  = flag.Bool("overlap", false, "nonblocking communication: double-buffer gets and pipeline writes so transfers overlap compute")
		ovEff    = flag.Float64("overlap-eff", 0, "fraction of in-flight transfer time the cost model may hide, in (0, 1] (0 = 1, full overlap)")
		verbose  = flag.Bool("v", false, "print the transformed tensor's checksum")
		autotune = flag.Bool("autotune", false, "sweep configurations in simulation and report the fastest (needs -system)")
		jsonOut  = flag.Bool("json", false, "emit the result as JSON on stdout")
	)
	flag.Parse()

	sch, err := fourindex.SchemeByName(*scheme)
	fatalIf(err)

	orbitals := *n
	if *molecule != "" {
		m, err := fourindex.MoleculeByName(*molecule)
		fatalIf(err)
		orbitals = m.Orbitals
		if !*cost {
			fmt.Fprintf(os.Stderr, "note: %s has %d orbitals; forcing -cost mode\n", m.Name, orbitals)
			*cost = true
		}
	}
	spec, err := fourindex.NewSpec(orbitals, *spatial, *seed)
	fatalIf(err)

	opt := fourindex.Options{
		Spec:              spec,
		Procs:             *procs,
		TileN:             *tileN,
		TileL:             *tileL,
		AlphaPar:          *alphaPar,
		Overlap:           *overlap,
		OverlapEfficiency: *ovEff,
	}
	if *cost {
		opt.Mode = fourindex.ModeCost
	} else {
		opt.Mode = fourindex.ModeExecute
	}
	if *mem != "" {
		b, err := units.ParseBytes(*mem)
		fatalIf(err)
		opt.GlobalMemBytes = b
	}
	if *system != "" {
		m, err := fourindex.MachineByName(*system)
		fatalIf(err)
		c := *cores
		if c == 0 {
			c = *procs
		}
		run, err := m.Configure(c, *rpn)
		fatalIf(err)
		opt.Run = &run
		opt.Procs = c
		fmt.Printf("machine:  %s\n", run)
	}

	if *autotune {
		if opt.Run == nil {
			fatalIf(fmt.Errorf("-autotune needs -system for the cost model"))
		}
		ft, err := fourindex.TuneFrontier(opt, autotuneSpace(orbitals, opt.Procs), 0)
		fatalIf(err)
		fmt.Printf("autotune: frontier at S = %.3g elements, %d of %d configurations simulated\n",
			float64(ft.CapacityElements), ft.Simulated, ft.FullSpace)
		fmt.Printf("  %-18s %-10s %6s %12s %10s\n",
			"scheme", "config", "fits", "bound elems", "floor s")
		for _, c := range ft.Candidates {
			mark := " "
			if c.Shortlisted {
				mark = "*"
			}
			fmt.Printf("%s %-18v %-10s %6v %12.4g %10.4f\n",
				mark, c.Scheme, c.Config, c.Feasible, c.BoundElements, c.LowerBoundSeconds)
		}
		fmt.Printf("  %-18s %5s %5s %8s %5s | %10s %12s\n",
			"scheme", "tileN", "tileL", "alphaPar", "lPar", "sim s", "peak GB")
		shown := 0
		for _, p := range ft.Points {
			if p.Err != "" {
				continue
			}
			fmt.Printf("  %-18v %5d %5d %8d %5d | %10.1f %12.2f\n",
				p.Scheme, p.TileN, p.TileL, p.AlphaPar, p.LPar,
				p.Seconds, float64(p.PeakBytes)/1e9)
			if shown++; shown >= 8 {
				break
			}
		}
		fmt.Printf("pick:     %v tileN=%d tileL=%d alphaPar=%d lPar=%d overlap=%v (%.1f s simulated)\n",
			ft.Pick.Scheme, ft.Pick.TileN, ft.Pick.TileL, ft.Pick.AlphaPar, ft.Pick.LPar,
			ft.Pick.Overlap, ft.Pick.Seconds)
		return
	}

	res, err := fourindex.Transform(sch, opt)
	fatalIf(err)

	if *jsonOut {
		fatalIf(emitJSON(res, orbitals, *spatial, opt.Procs))
		return
	}

	fmt.Printf("scheme:   %v", res.Scheme)
	if res.ChosenScheme != res.Scheme {
		fmt.Printf(" (chose %v)", res.ChosenScheme)
	}
	fmt.Println()
	fmt.Printf("n:        %d orbitals, spatial symmetry %d, %d procs\n", orbitals, *spatial, opt.Procs)
	fmt.Printf("flops:    %.4g\n", float64(res.Totals.Flops))
	fmt.Printf("comm:     %.4g elements inter-node, %.4g intra-node\n",
		float64(res.CommVolume), float64(res.IntraVolume))
	fmt.Printf("messages: %d\n", res.Totals.CommMessages)
	fmt.Printf("peak mem: %.4g GB aggregate\n", float64(res.PeakGlobalBytes)/1e9)
	if res.ElapsedSeconds > 0 {
		fmt.Printf("sim time: %.1f s (%.0f%% idle at barriers)\n",
			res.ElapsedSeconds, 100*res.IdleFraction)
	}
	if total := res.ExposedCommSeconds + res.OverlapCommSeconds; *overlap && total > 0 {
		fmt.Printf("overlap:  %.1f s transfer hidden, %.1f s exposed (%.0f%% exposed)\n",
			res.OverlapCommSeconds, res.ExposedCommSeconds, 100*res.ExposedCommSeconds/total)
	}
	if len(res.Phases) > 0 {
		fmt.Printf("phases:\n")
		fmt.Printf("  %-18s %10s %12s %12s\n", "phase", "sim s", "flops", "comm el")
		for _, ph := range res.Phases {
			fmt.Printf("  %-18s %10.2f %12.4g %12.4g\n",
				ph.Name, ph.Seconds, float64(ph.Flops), float64(ph.CommElements))
		}
	}
	if *verbose && res.C != nil {
		var sum float64
		for _, v := range res.C.Data() {
			sum += v * v
		}
		fmt.Printf("|C|_F^2:  %.12g\n", sum)
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fouridx:", err)
		os.Exit(1)
	}
}

// jsonResult is the machine-readable result shape.
type jsonResult struct {
	Scheme        string      `json:"scheme"`
	ChosenScheme  string      `json:"chosenScheme"`
	Orbitals      int         `json:"orbitals"`
	Spatial       int         `json:"spatialSymmetry"`
	Procs         int         `json:"procs"`
	Flops         int64       `json:"flops"`
	CommElements  int64       `json:"commElements"`
	IntraElements int64       `json:"intraElements"`
	DiskElements  int64       `json:"diskElements"`
	Messages      int64       `json:"messages"`
	PeakBytes     int64       `json:"peakGlobalBytes"`
	SimSeconds    float64     `json:"simSeconds"`
	IdleFraction  float64     `json:"idleFraction"`
	Phases        []jsonPhase `json:"phases,omitempty"`
}

type jsonPhase struct {
	Name          string  `json:"name"`
	Seconds       float64 `json:"seconds"`
	Flops         int64   `json:"flops"`
	CommElements  int64   `json:"commElements"`
	IntraElements int64   `json:"intraElements"`
	Messages      int64   `json:"messages"`
}

func emitJSON(res *fourindex.Result, orbitals, spatial, procs int) error {
	out := jsonResult{
		Scheme:        res.Scheme.String(),
		ChosenScheme:  res.ChosenScheme.String(),
		Orbitals:      orbitals,
		Spatial:       spatial,
		Procs:         procs,
		Flops:         res.Totals.Flops,
		CommElements:  res.CommVolume,
		IntraElements: res.IntraVolume,
		DiskElements:  res.DiskVolume,
		Messages:      res.Totals.CommMessages,
		PeakBytes:     res.PeakGlobalBytes,
		SimSeconds:    res.ElapsedSeconds,
		IdleFraction:  res.IdleFraction,
	}
	for _, ph := range res.Phases {
		out.Phases = append(out.Phases, jsonPhase{
			Name: ph.Name, Seconds: ph.Seconds, Flops: ph.Flops,
			CommElements: ph.CommElements, IntraElements: ph.IntraElements,
			Messages: ph.Messages,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// autotuneSpace derives a lean tuning space centred on the benchmark
// matrix's tiling heuristic (~n/24-wide data tiles, alpha parallelism
// matched to the rank count): the heuristic knob, a 2x coarser tile,
// and both parallelisation settings. The package-level TuneSpace
// defaults reach down to single-element tiles, which are pathological
// to cost-simulate at small n (minutes per configuration); this space
// keeps -autotune interactive at every extent.
func autotuneSpace(n, procs int) fourindex.TuneSpace {
	tileN := max(2, (n+23)/24)
	nt := (n + tileN - 1) / tileN
	alphaPar := max(1, (procs+nt-1)/nt)
	if alphaPar > nt {
		alphaPar = nt
	}
	dedup := func(vals ...int) []int {
		var out []int
		for _, v := range vals {
			if len(out) == 0 || out[len(out)-1] != v {
				out = append(out, v)
			}
		}
		return out
	}
	return fourindex.TuneSpace{
		TileNs:    dedup(tileN, 2*tileN),
		TileLs:    dedup(tileN, 2*tileN),
		AlphaPars: dedup(1, alphaPar),
		LPars:     []int{1, 2},
	}
}
