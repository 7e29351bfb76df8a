package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// compareMain implements `fouridx-bench compare A.jsonl B.jsonl`: for
// every workload and end-to-end metric, each set's quartiles and a
// verdict against the metric's bound. A is the parent, B the change. It
// exits 1 when any pairing regressed.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchmark := fs.String("benchmark", "BENCHMARK.json", "the benchmark declaration")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: fouridx-bench compare [-benchmark BENCHMARK.json] A.jsonl B.jsonl")
	}
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	bf, err := loadBenchmark(*benchmark)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 1
	}
	sets := make([][]record, 2)
	for i := range sets {
		if sets[i], err = readRecords(fs.Arg(i)); err != nil {
			fmt.Fprintf(os.Stderr, "compare: %v\n", err)
			return 1
		}
	}
	rows := compareSets(bf, sets[0], sets[1])
	if err := writeComparison(os.Stdout, rows); err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 1
	}
	for _, row := range rows {
		if row.verdict == "regressed" {
			return 1
		}
	}
	return 0
}

// readRecords reads a file of result lines written with -o.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// comparison is one workload and end-to-end metric across the two sets.
type comparison struct {
	workload, metric string
	na, nb           int
	a, b             [3]float64 // quartiles
	verdict          string
}

// compareSets compares the untraced runs of two sets, workload by
// workload in declaration order.
func compareSets(bf *benchmarkFile, a, b []record) []comparison {
	values := func(recs []record, workload, metric string) []float64 {
		var out []float64
		for _, rec := range recs {
			if m, ok := rec.Metrics[metric]; ok && rec.Workload == workload && rec.Trace == 0 {
				out = append(out, m.Value)
			}
		}
		return out
	}
	var rows []comparison
	for _, w := range bf.Workloads {
		for _, d := range bf.EndToEnd {
			av, bv := values(a, w.Name, d.Name), values(b, w.Name, d.Name)
			if len(av) == 0 && len(bv) == 0 {
				continue
			}
			rows = append(rows, comparison{
				workload: w.Name, metric: d.Name,
				na: len(av), nb: len(bv),
				a: quartiles(av), b: quartiles(bv),
				verdict: verdict(d, av, bv),
			})
		}
	}
	return rows
}

// verdict judges change b against parent a. Where a's own spread (the
// distance between its quartiles, as a share of its median) exceeds the
// bound, the comparison cannot resolve a regression of that size: it is
// unresolved unless every run of b beats every run of a. Otherwise b
// regressed when its median is worse than a's by more than the bound.
func verdict(d metricDef, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	qa, qb := quartiles(a), quartiles(b)
	worse := (qb[1] - qa[1]) / qa[1]
	if d.Better == "higher" {
		worse = -worse
	}
	if (qa[2]-qa[0])/qa[1] > d.Bound {
		if allBetter(d, a, b) {
			return "ok"
		}
		return "unresolved"
	}
	if worse > d.Bound {
		return "regressed"
	}
	return "ok"
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(d metricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if (d.Better == "lower" && y >= x) || (d.Better == "higher" && y <= x) {
				return false
			}
		}
	}
	return true
}

func writeComparison(w io.Writer, rows []comparison) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA n\tA q1\tA median\tA q3\tB n\tB q1\tB median\tB q3\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.4g\t%.4g\t%.4g\t%d\t%.4g\t%.4g\t%.4g\t%s\n",
			r.workload, r.metric, r.na, r.a[0], r.a[1], r.a[2], r.nb, r.b[0], r.b[1], r.b[2], r.verdict)
	}
	return tw.Flush()
}
