package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark reads. It is
// the single source of truth for metric names, units, directions and
// regression bounds, and for the workload list: a run refuses to report a
// metric the file does not declare, or to omit one it does.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// metricDef declares one metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64 `json:"bound,omitempty"`
}

// metricName is the form every metric and workload name must take.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadBenchmark(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), bf.EndToEnd...), bf.PerLayer...) {
		if !metricName.MatchString(d.Name) || seen[d.Name] {
			return nil, fmt.Errorf("%s: bad or repeated metric name %q", path, d.Name)
		}
		if d.Better != "lower" && d.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s: better must be lower or higher", path, d.Name)
		}
		seen[d.Name] = true
	}
	return &bf, nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract: the last line of standard
// output is this object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// declared attaches units to values, requiring that values holds exactly
// the declared metrics and that each is a finite number.
func declared(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared but was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s measured %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	var extra []string
	for name := range values {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics %v were measured but are not declared in BENCHMARK.json", extra)
	}
	return out, nil
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentileLadder lists the percentiles a timing may be reported at.
var percentileLadder = []int{50, 75, 90, 95, 99}

// tailPercentile returns the highest percentile of the ladder with at
// least minBeyond of n samples beyond it (50 when none has).
func tailPercentile(n int) int {
	best := percentileLadder[0]
	for _, p := range percentileLadder {
		if n*(100-p) >= minBeyond*100 {
			best = p
		}
	}
	return best
}

// samplesFor returns the fewest samples for which tailPercentile reaches
// p, one of the ladder's percentiles.
func samplesFor(p int) int {
	n := 1
	for tailPercentile(n) < p {
		n++
	}
	return n
}

// quartiles returns the three cut points of xs by the exclusive method of
// Python's statistics.quantiles(xs, n=4), so that the spreads the
// benchmark reports match how its acceptance is computed. The middle one
// is the median. A single value is its own quartiles; no values give NaN,
// which declared refuses to report.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func median(xs []float64) float64 { return quartiles(xs)[1] }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
