// Command fouridx-bench is the repository's benchmark: it measures how
// fast correct four-index transforms finish, run directly and through the
// fouridxd job server, on four workloads, and checks every result.
//
// Each workload runs in its own process:
//
//	bash bench/run.sh --workload exec-gemm --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics BENCHMARK.json
// declares; with --trace 1 a separate traced pass reports the per-layer
// metrics and writes the spans as Chrome trace_event JSON next to a
// per-span self-time table. Without --workload it runs every workload in
// turn, each in a child process. The last line of standard output is the
// result as one JSON object.
//
//	fouridx-bench compare A.jsonl B.jsonl
//
// compares two sets of runs recorded with -o, one row per workload and
// end-to-end metric, against the bounds in BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"fourindex/internal/blas"
)

// now reads the wall clock; every timing in the benchmark goes through it.
func now() time.Time {
	//lint:ignore determinism the benchmark measures host wall time; no checked output depends on it
	return time.Now()
}

// since returns the seconds elapsed from t0.
func since(t0 time.Time) float64 { return now().Sub(t0).Seconds() }

// config holds the command-line settings of one run.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	traceDir  string
	workDir   string
	benchmark string
	out       string
	quick     bool
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	var cfg config
	fs := flag.NewFlagSet("fouridx-bench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run (default: every workload, each in its own process)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "how long the timed loop runs (it also runs until the tail percentile has enough samples)")
	fs.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics; 1: a traced pass reporting per-layer metrics")
	fs.StringVar(&cfg.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "where a traced pass writes its Chrome trace and self-time table")
	fs.StringVar(&cfg.workDir, "work-dir", ".bench_build", "working directory for server state and checkpoints")
	fs.StringVar(&cfg.benchmark, "benchmark", "BENCHMARK.json", "the benchmark declaration")
	fs.StringVar(&cfg.out, "o", "", "also append the result, with workload and seed, as one JSON line to this file")
	fs.BoolVar(&cfg.quick, "quick", false, "smoke test: n=16, two rounds of the mix (at least 4 operations) whatever --seconds says, one setup")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		fmt.Fprintln(os.Stderr, "fouridx-bench: --trace takes 0 or 1")
		return 2
	}
	bf, err := loadBenchmark(cfg.benchmark)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fouridx-bench: %v\n", err)
		return 1
	}
	if cfg.workload == "" {
		return runEach(bf, args)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := runWorkload(ctx, cfg, bf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fouridx-bench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := report(cfg, res); err != nil {
		fmt.Fprintf(os.Stderr, "fouridx-bench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runEach runs every declared workload in a child process of this binary
// with the same arguments, and fails if any of them does.
func runEach(bf *benchmarkFile, args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fouridx-bench: %v\n", err)
		return 1
	}
	status := 0
	for _, w := range bf.Workloads {
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w.Name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "fouridx-bench: %s: %v\n", w.Name, err)
			status = 1
		}
	}
	return status
}

// run is the state of one workload run.
type run struct {
	w       workload
	seed    int64
	seconds float64
	minOps  int
	setups  int
	dir     string    // working directory inside the checkout
	rec     *recorder // traced passes only
	// directRoots are the op spans of the traced direct runs the probes
	// make of each planned job.
	directRoots []int
	tally       tally
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

func runWorkload(ctx context.Context, cfg config, bf *benchmarkFile) (*result, error) {
	w, err := workloadByName(cfg.workload, cfg.quick)
	if err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(w.cores)
	blas.SetWorkers(w.cores)
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	r := &run{w: w, seed: cfg.seed, seconds: cfg.seconds, minOps: samplesFor(75), setups: setupReps, dir: dir}
	if cfg.quick {
		// Two rounds of the mix, so that a traced pass has untraced
		// operations to compare with.
		r.minOps, r.setups, r.seconds = max(4, 2*len(w.block)), 1, 0
	}
	var values map[string]float64
	defs := bf.EndToEnd
	if cfg.trace == 1 {
		r.rec = newRecorder()
		defs = bf.PerLayer
		if w.serve {
			values, err = r.serveTraced(ctx)
		} else {
			values, err = r.execTraced(ctx)
		}
	} else if w.serve {
		values, err = r.serveEndToEnd(ctx)
	} else {
		values, err = r.execEndToEnd(ctx)
	}
	if err != nil {
		return nil, err
	}
	metrics, err := declared(defs, values)
	if err != nil {
		return nil, err
	}
	if r.rec != nil {
		base := fmt.Sprintf("%s-seed%d", w.name, cfg.seed)
		if err := r.rec.writeTrace(cfg.traceDir, base); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "trace: %s\n", filepath.Join(cfg.traceDir, base+".{trace.json,layers.txt}"))
	}
	return &result{
		Correct:   r.tally.failed == 0,
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed,
		Metrics:   metrics,
	}, nil
}

// report prints every metric as name, value and unit, then the result as
// the last line of standard output, and appends it to cfg.out if set.
func report(cfg config, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s seed=%d trace=%d attempted=%d failed=%d\n", cfg.workload, cfg.seed, cfg.trace, res.Attempted, res.Failed)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("  %-26s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if cfg.out == "" {
		return nil
	}
	rec, err := json.Marshal(record{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, result: *res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(cfg.out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(rec, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// record is one line of a -o file: a result with what produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// tally counts attempted and failed operations; each failure is reported
// on standard error when it happens.
type tally struct {
	attempted, failed int
}

func (t *tally) attempt() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.failed++
	fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
}

// endToEndMetrics reduces a run's setup and operation timings to the
// end-to-end metrics. Read it before any verification work, which would
// otherwise count towards the peak memory.
func endToEndMetrics(setup, ops []float64, wall float64) (map[string]float64, error) {
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	q := quartiles(ops)
	return map[string]float64{
		"setup_s":     median(setup),
		"op_s_p50":    q[1],
		"op_s_p75":    q[2],
		"ops_per_s":   float64(len(ops)) / wall,
		"peak_rss_mb": rss,
	}, nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	var kb float64
	for _, line := range strings.Split(string(raw), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
