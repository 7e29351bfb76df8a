package main

import (
	"context"
	"fmt"
	"testing"
)

const benchmarkPath = "../BENCHMARK.json"

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 50}, {19, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {200, 95}, {1000, 99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	for _, p := range percentileLadder[1:] {
		n := samplesFor(p)
		if tailPercentile(n) < p || tailPercentile(n-1) >= p {
			t.Errorf("samplesFor(%d) = %d is not the fewest samples reaching p%d", p, n, p)
		}
	}
	if got := samplesFor(75); got != 40 {
		t.Errorf("samplesFor(75) = %d, want 40", got)
	}
}

// TestQuartiles pins the values Python's statistics.quantiles(xs, n=4)
// gives, which is how the benchmark's spread is judged.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestMetricNames(t *testing.T) {
	for _, name := range []string{"setup_s", "phase.self.s", "ga.get_ns", "serve-exec", "p75"} {
		if !metricName.MatchString(name) {
			t.Errorf("%q rejected", name)
		}
	}
	for _, name := range []string{"", ".hidden", "_x", "a b", "a/b", "x@y", fmt.Sprintf("%065d", 0)} {
		if metricName.MatchString(name) {
			t.Errorf("%q accepted", name)
		}
	}
	bf, err := loadBenchmark(benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if !metricName.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "op_s_p50", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.9}
	for _, tc := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{1.05, 1.04, 1.06}, "ok"},
		{lower, steady, []float64{1.15, 1.14, 1.16}, "regressed"},
		{higher, steady, []float64{0.85, 0.86, 0.84}, "regressed"},
		{higher, steady, []float64{1.15, 1.16}, "ok"},
		{lower, noisy, []float64{1.0, 1.1}, "unresolved"},
		{lower, noisy, []float64{0.5, 0.6}, "ok"},
		{lower, nil, steady, "missing"},
	} {
		if got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", tc.d.Name, tc.a, tc.b, got, tc.want)
		}
	}
}

// TestQuickWorkloads runs every workload at smoke size, untraced and
// traced, and checks both ways that what the code emits is what
// BENCHMARK.json declares: each run must report exactly the declared
// metrics (runWorkload refuses anything else), and the declared
// workloads must be the implemented ones.
func TestQuickWorkloads(t *testing.T) {
	bf, err := loadBenchmark(benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := workloads(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != len(bf.Workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code implements %d", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json declares %q, the code implements %q", i, bf.Workloads[i].Name, w.name)
		}
	}
	start := now()
	for _, w := range ws {
		for trace, defs := range [][]metricDef{bf.EndToEnd, bf.PerLayer} {
			cfg := config{
				workload: w.name, seed: 5, trace: trace, quick: true,
				traceDir: t.TempDir(), workDir: t.TempDir(), benchmark: benchmarkPath,
			}
			res, err := runWorkload(context.Background(), cfg, bf)
			if err != nil {
				t.Errorf("%s trace=%d: %v", w.name, trace, err)
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 4 || len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d, %d of %d metrics",
					w.name, trace, res.Correct, res.Attempted, res.Failed, len(res.Metrics), len(defs))
			}
		}
	}
	if d := since(start); d > 20 {
		t.Errorf("the quick smoke took %.1f s, over its 20 s budget", d)
	}
}
