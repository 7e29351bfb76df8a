package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"fourindex/internal/trace"
)

// Span categories.
const (
	catOp       = "op"       // one transform call, or one job from submit to done
	catSubmit   = "submit"   // a job's POST until its 202
	catSchedule = "schedule" // the tracer's root span of one schedule run
	catPhase    = "phase"    // a schedule phase (generate-A, op1, op12-fused, ...)
	catProbe    = "probe"    // one layer probe call
)

// probeLane is the Chrome thread probes are drawn on; the workload's own
// operations are on thread 0.
const probeLane = 100

// span is one timed region of a traced run.
type span struct {
	name       string
	cat        string
	lane       int
	parent     int // enclosing span, -1 for a root
	start, end time.Time
}

func (s span) seconds() float64 { return s.end.Sub(s.start).Seconds() }

// recorder keeps a traced run's spans in memory until the run ends.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: now()} }

// add records a span; end may be set later with finish.
func (r *recorder) add(name, cat string, lane, parent int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, cat: cat, lane: lane, parent: parent, start: start, end: end})
	return len(r.spans) - 1
}

// finish sets the end of span i.
func (r *recorder) finish(i int, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].end = end
}

// probe runs fn as a probe span and returns its seconds.
func (r *recorder) probe(name string, fn func() error) (float64, error) {
	t0 := now()
	i := r.add(name, catProbe, probeLane, -1, t0, time.Time{})
	err := fn()
	end := now()
	r.finish(i, end)
	return end.Sub(t0).Seconds(), err
}

// follow returns a feed for a tracer's progress events that records its
// span-begin/span-end pairs, timestamped at delivery, as spans under
// root. The tracer's first span is the schedule's root; the spans inside
// it are its phases.
func (r *recorder) follow(lane, root int) func(ev trace.ProgressEvent, at time.Time) {
	stack := []int{root}
	return func(ev trace.ProgressEvent, at time.Time) {
		r.mu.Lock()
		defer r.mu.Unlock()
		switch ev.Kind {
		case "span-begin":
			cat := catPhase
			if len(stack) == 1 {
				cat = catSchedule
			}
			r.spans = append(r.spans, span{name: ev.Label, cat: cat, lane: lane, parent: stack[len(stack)-1], start: at})
			stack = append(stack, len(r.spans)-1)
		case "span-end":
			if len(stack) > 1 {
				r.spans[stack[len(stack)-1]].end = at
				stack = stack[:len(stack)-1]
			}
		}
	}
}

// listener adapts follow to trace.Tracer.SetProgressListener.
func (r *recorder) listener(lane, root int) func(trace.ProgressEvent) {
	feed := r.follow(lane, root)
	return func(ev trace.ProgressEvent) { feed(ev, now()) }
}

// closed returns a copy of the spans and, for each, the indexes of its
// children. Spans still open count as ending at the last recorded time.
func (r *recorder) closed() ([]span, [][]int) {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	last := r.origin
	for _, s := range spans {
		if s.end.After(last) {
			last = s.end
		}
	}
	kids := make([][]int, len(spans))
	for i := range spans {
		if spans[i].end.IsZero() {
			spans[i].end = last
		}
		if p := spans[i].parent; p >= 0 {
			kids[p] = append(kids[p], i)
		}
	}
	return spans, kids
}

// split is one traced operation's time, divided by the tracer's spans.
type split struct {
	op       float64 // the operation as the benchmark timed it
	schedule float64 // the schedule's root span
	generate float64 // integral-generation phases
	contract float64 // contraction phases (op1..op4 and the fused regions)
	self     float64 // the schedule root minus all its phases
}

// splits divides each operation root in roots by its spans.
func splits(spans []span, kids [][]int, roots []int) []split {
	out := make([]split, 0, len(roots))
	for _, root := range roots {
		sp := split{op: spans[root].seconds()}
		for _, s := range kids[root] {
			if spans[s].cat != catSchedule {
				continue
			}
			sp.schedule += spans[s].seconds()
			sp.self += spans[s].seconds()
			for _, p := range kids[s] {
				d := spans[p].seconds()
				sp.self -= d
				switch {
				case strings.HasPrefix(spans[p].name, "generate"):
					sp.generate += d
				case strings.HasPrefix(spans[p].name, "op"):
					sp.contract += d
				}
			}
		}
		out = append(out, sp)
	}
	return out
}

// phaseMetrics reduces splits to the phase.* and trace.coverage_frac
// metrics: per-operation medians, and the share of operation wall the
// schedule spans cover.
func phaseMetrics(ss []split, into map[string]float64) {
	var gen, con, self []float64
	var covered, total float64
	for _, s := range ss {
		gen = append(gen, s.generate)
		con = append(con, s.contract)
		self = append(self, s.self)
		covered += s.schedule
		total += s.op
	}
	into["phase.generate.s"] = median(gen)
	into["phase.contract.s"] = median(con)
	into["phase.self.s"] = median(self)
	into["trace.coverage_frac"] = covered / total
}

// writeTrace writes the spans as Chrome trace_event JSON on the wall
// clock, and a per-span-name table with self times (a span's duration
// minus its children's), to dir/base.trace.json and dir/base.layers.txt.
func (r *recorder) writeTrace(dir, base string) error {
	spans, kids := r.closed()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type event struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{
			Name: s.name, Cat: s.cat, Ph: "X", Pid: 1, Tid: s.lane,
			Ts:  float64(s.start.Sub(r.origin).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
		})
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".trace.json"), raw, 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, base+".layers.txt"))
	if err != nil {
		return err
	}
	if err := writeLayerTable(f, spans, kids); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeLayerTable prints, per span category and name, the count, total
// time and self time, largest total first.
func writeLayerTable(w io.Writer, spans []span, kids [][]int) error {
	type row struct {
		cat, name   string
		count       int
		total, self float64
	}
	rows := map[string]*row{}
	for i, s := range spans {
		key := s.cat + "\x00" + s.name
		rw := rows[key]
		if rw == nil {
			rw = &row{cat: s.cat, name: s.name}
			rows[key] = rw
		}
		d := s.seconds()
		rw.count++
		rw.total += d
		rw.self += d
		for _, k := range kids[i] {
			rw.self -= spans[k].seconds()
		}
	}
	list := make([]*row, 0, len(rows))
	for _, rw := range rows {
		list = append(list, rw)
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].total != list[j].total {
			return list[i].total > list[j].total
		}
		return list[i].cat+list[i].name < list[j].cat+list[j].name
	})
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "category\tspan\tcount\ttotal_s\tself_s\tmean_ms\t")
	for _, rw := range list {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.4f\t%.4f\t%.3f\t\n", rw.cat, rw.name, rw.count, rw.total, rw.self, 1e3*rw.total/float64(rw.count))
	}
	return tw.Flush()
}
