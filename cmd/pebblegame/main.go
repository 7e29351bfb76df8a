// Command pebblegame plays red-blue pebble games (Hong & Kung, the
// paper's Appendix A) on small computational DAGs and compares the
// measured I/O of concrete schedules against the analytic lower bounds:
//
//	pebblegame -matmul -n 12 -s 51      untiled vs tiled matmul (Fig. 1)
//	pebblegame -fourindex -n 3          unfused vs fused chains (Sec. 5-6)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fourindex/internal/cdag"
	"fourindex/internal/lb/chain"
	"fourindex/internal/pebble"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable command body; it returns the exit status. Every
// flag is validated before the first byte of output: a malformed or
// out-of-range flag exits 2 with the reason on stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pebblegame", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		matmul    = fs.Bool("matmul", false, "play the Section 2.3 matmul tiling game")
		fourIndex = fs.Bool("fourindex", false, "play the Section 5-6 fusion games")
		n         = fs.Int("n", 8, "problem extent (matmul: matrix order; fourindex: tensor extent, keep <= 4)")
		s         = fs.Int("s", 0, "red pebbles / fast memory size (0 = auto)")
		tileW     = fs.Int("tile", 4, "tile width for the tiled matmul order")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var bad string
	switch {
	case fs.NArg() > 0:
		bad = fmt.Sprintf("unexpected argument %q", fs.Arg(0))
	case *n < 1:
		bad = fmt.Sprintf("-n must be at least 1, got %d", *n)
	case *s < 0:
		bad = fmt.Sprintf("-s must be non-negative, got %d", *s)
	case *tileW < 1:
		bad = fmt.Sprintf("-tile must be at least 1, got %d", *tileW)
	case *fourIndex && *n > 4:
		bad = "-fourindex needs n <= 4 (the CDAG has 4n^5 operation vertices)"
	}
	if bad != "" {
		fmt.Fprintln(stderr, "pebblegame:", bad)
		return 2
	}
	if !*matmul && !*fourIndex {
		fs.Usage()
		return 2
	}
	if *matmul {
		playMatmul(stdout, *n, *s, *tileW)
	}
	if *fourIndex {
		playFourIndex(stdout, *n, *s)
	}
	return 0
}

func playMatmul(w io.Writer, n, s, t int) {
	if s == 0 {
		s = 3*t*t + 3
	}
	m := cdag.BuildMatMul(n)
	fmt.Fprintf(w, "Matrix multiplication C = A*B, n = %d, S = %d red pebbles\n", n, s)
	fmt.Fprintf(w, "  CDAG: %d vertices (%d inputs, %d outputs)\n",
		m.G.NumVertices(), len(m.G.Inputs()), len(m.G.Outputs()))

	for _, o := range []struct {
		name  string
		order []cdag.VID
	}{
		{"untiled i-j-k (Figure 1 left)", pebble.OrderMatMulUntiled(m)},
		{fmt.Sprintf("tiled T=%d (Figure 1 right)", t), pebble.OrderMatMulTiled(m, t)},
	} {
		res, err := pebble.Simulate(m.G, s, o.order)
		if err != nil {
			fmt.Fprintf(w, "  %-32s %v\n", o.name, err)
			continue
		}
		fmt.Fprintf(w, "  %-32s I/O = %6d (loads %d, stores %d), peak red = %d\n",
			o.name, res.IO(), res.Loads, res.Stores, res.PeakRed)
	}
	n64, s64 := int64(n), int64(s)
	fmt.Fprintf(w, "  Hong-Kung bound n^3/sqrt(S):     %8.0f\n", chain.HongKung(n64, s64))
	fmt.Fprintf(w, "  Irony et al. bound:              %8.0f\n", chain.Irony(n64, n64, n64, s64))
	fmt.Fprintf(w, "  Dongarra et al. bound:           %8.0f\n", chain.Dongarra(n64, n64, n64, s64))
	fmt.Fprintf(w, "  trivial bound (inputs+outputs):  %8d\n", 3*n*n)
}

func playFourIndex(w io.Writer, n, s int) {
	f := cdag.BuildFourIndex(n)
	n4 := n * n * n * n
	if s == 0 {
		s = n4 + 3*n*n*n + 4*n*n + 2*n + 8
	}
	fmt.Fprintf(w, "Four-index transform chain, n = %d, S = %d red pebbles, |C| = %d\n", n, s, n4)
	fmt.Fprintf(w, "  CDAG: %d vertices\n", f.G.NumVertices())

	for _, o := range []struct {
		name  string
		order []cdag.VID
	}{
		{"unfused op1/2/3/4 (Listing 1)", pebble.OrderFourIndexUnfused(f)},
		{"fused op12/34 (Listing 9)", pebble.OrderFourIndexFusedPair(f)},
		{"fully fused op1234 (Listing 7)", pebble.OrderFourIndexFullyFused(f)},
	} {
		res, err := pebble.Simulate(f.G, s, o.order)
		if err != nil {
			fmt.Fprintf(w, "  %-32s %v\n", o.name, err)
			continue
		}
		fmt.Fprintf(w, "  %-32s I/O = %6d, peak red = %d\n", o.name, res.IO(), res.PeakRed)
	}
	fmt.Fprintf(w, "  full-reuse bound |A|+|B|+|C|:    %8d (achieved by Listing 7 when S >= |C|+2n^3)\n",
		n4+4*n*n+n4)

	if s > n4 {
		small := n4 - 1
		res, err := pebble.Simulate(f.G, small, pebble.OrderFourIndexFullyFused(f))
		if err == nil {
			fmt.Fprintf(w, "  same schedule with S = |C|-1:    I/O = %6d (> bound: Theorem 6.2's necessity)\n", res.IO())
		}
	}
}
