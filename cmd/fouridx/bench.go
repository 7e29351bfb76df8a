package main

import (
	"flag"
	"fmt"
	"os"

	"fourindex"
)

// runBench implements the `fouridx bench` subcommand: run the fixed
// benchmark matrix (or the CI smoke subset), write the schema-versioned
// JSON report, and — when a baseline is given — gate the run against it,
// exiting non-zero on any regression beyond the tolerance.
func runBench(args []string) {
	fs := flag.NewFlagSet("fouridx bench", flag.ExitOnError)
	var (
		out       = fs.String("o", "BENCH_fouridx.json", "report output path (empty = stdout only)")
		smoke     = fs.Bool("smoke", false, "run the CI smoke subset of the matrix")
		baseline  = fs.String("baseline", "", "baseline report to gate against (e.g. BENCH_fouridx.json)")
		tolerance = fs.Float64("tolerance", 0.15, "regression gate tolerance (0.15 = 15%)")
		repeats   = fs.Int("repeats", 0, "timed repetitions per measured point (0 = matrix default)")
		noMeasure = fs.Bool("no-measure", false, "deterministic accounting only: skip wall-clock measurement for a byte-stable report")
		verbose   = fs.Bool("v", false, "print every matrix point, not just the summary")
	)
	fatalIf(fs.Parse(args))

	cfg := fourindex.DefaultBenchConfig()
	if *smoke {
		cfg = fourindex.SmokeBenchConfig()
	}
	if *repeats > 0 {
		cfg.Repeats = *repeats
	}
	if *noMeasure {
		cfg.Measure = false
	}

	rep, err := fourindex.RunBench(cfg)
	fatalIf(err)

	if *verbose {
		fmt.Printf("%-9s %-18s %-22s %5s %3s | %12s %12s %10s %8s %8s %10s\n",
			"kind", "scheme", "point", "gomax", "ov", "flops", "bytesMoved", "sim s", "attained", "exp frac", "wall ms")
		for _, p := range rep.Points {
			where := fmt.Sprintf("n=%d procs=%d", p.N, p.Procs)
			if p.Kind == "cost" {
				where = fmt.Sprintf("%s/%s/%d", p.Molecule, p.System, p.Procs)
			}
			wall := "-"
			if p.Measured != nil {
				wall = fmt.Sprintf("%.2f", 1e3*p.Measured.WallSeconds)
			}
			ov := "off"
			if p.Overlap {
				ov = "on"
			}
			fmt.Printf("%-9s %-18s %-22s %5d %3s | %12.4g %12.4g %10.2f %8.3f %8.3f %10s\n",
				p.Kind, p.Scheme, where, p.Gomaxprocs, ov,
				float64(p.Flops), float64(p.BytesMoved), p.SimSeconds, p.Attained, p.ExposedCommFraction, wall)
		}
	}
	fmt.Printf("bench:    %d matrix points\n", len(rep.Points))
	if rep.ReadPath != nil {
		fmt.Printf("%s\n", rep.ReadPath)
	}
	if rep.GemmTransB != nil {
		fmt.Printf("%s\n", rep.GemmTransB)
	}

	if *out != "" {
		f, err := os.Create(*out)
		fatalIf(err)
		err = rep.Encode(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		fatalIf(err)
		fmt.Printf("report:   %s\n", *out)
	}

	if *baseline != "" {
		f, err := os.Open(*baseline)
		fatalIf(err)
		base, err := fourindex.DecodeBenchReport(f)
		f.Close()
		fatalIf(err)
		violations, err := fourindex.BenchGate(rep, base, *tolerance)
		fatalIf(err)
		if len(violations) > 0 {
			fmt.Fprintf(os.Stderr, "fouridx bench: %d regression(s) vs %s (tolerance %.0f%%):\n",
				len(violations), *baseline, 100**tolerance)
			for _, v := range violations {
				fmt.Fprintf(os.Stderr, "  %s\n", v)
			}
			os.Exit(1)
		}
		fmt.Printf("gate:     pass vs %s (tolerance %.0f%%)\n", *baseline, 100**tolerance)
	}
}
