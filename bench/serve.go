package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"fourindex"
	"fourindex/internal/serve"
	"fourindex/internal/trace"
)

// memBudget is the server's aggregate-memory budget: 16 TiB, so that
// admission never refuses a benchmark job.
const memBudget = 16 << 40

// server is a job server behind a loopback HTTP listener, and the
// benchmark's client of it.
type server struct {
	srv  *serve.Server
	ts   *httptest.Server
	http *http.Client
}

// startServer starts a server whose state lives in a fresh directory
// under the run's working directory, which the run removes when it ends.
func (r *run) startServer() (*server, error) {
	dir, err := os.MkdirTemp(r.dir, "state-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{
		MemBudgetBytes: memBudget,
		StateDir:       dir,
		Procs:          procs,
		Workers:        r.w.cores,
		Machine:        "B",
	})
	if err != nil {
		return nil, err
	}
	return &server{
		srv:  srv,
		ts:   httptest.NewServer(srv.Handler()),
		http: &http.Client{Transport: &http.Transport{}},
	}, nil
}

// close stops the listener and the server.
func (s *server) close() {
	s.http.CloseIdleConnections()
	s.ts.Close()
	s.srv.Close()
}

// jobStatus is the part of a job's status the benchmark checks.
type jobStatus struct {
	ID            string `json:"id"`
	State         string `json:"state"`
	Error         string `json:"error"`
	ReservedBytes int64  `json:"reservedBytes"`
	Result        *struct {
		PeakBytes int64  `json:"peakBytes"`
		Checksum  string `json:"checksumSha256"`
	} `json:"result"`
}

// jobRun is one job as its client saw it.
type jobRun struct {
	job job
	// submit is POST to 202 (admission, including pricing); queue is 202
	// to the first progress event; run is the first to the last event (the
	// schedule's root span ending); finish is the last event to the end of
	// the stream (the result's checksum and the server's state write);
	// total is all four.
	submit, queue, run, finish, total float64
	events                            int
	root                              int // the job's op span when traced, else -1
	status                            jobStatus
}

// runJob submits j for tenant, follows its progress stream to the end
// and fetches its final status. With rec set, the job and the tracer
// spans its events report are recorded on the given lane.
func (s *server) runJob(ctx context.Context, j job, seed int64, tenant string, lane int, rec *recorder) (jobRun, error) {
	jr := jobRun{job: j, root: -1}
	body, err := json.Marshal(j.spec(tenant, specSeed(seed)))
	if err != nil {
		return jr, err
	}
	posted := now()
	if err := s.call(ctx, http.MethodPost, "/jobs", body, http.StatusAccepted, &jr.status); err != nil {
		return jr, err
	}
	admitted := now()
	var feed func(trace.ProgressEvent, time.Time)
	if rec != nil {
		jr.root = rec.add("job "+j.label(), catOp, lane, -1, posted, time.Time{})
		rec.add("submit", catSubmit, lane, jr.root, posted, admitted)
		feed = rec.follow(lane, jr.root)
	}
	first, last, err := s.follow(ctx, jr.status.ID, feed, &jr.events)
	end := now()
	if rec != nil {
		rec.finish(jr.root, end)
	}
	if err != nil {
		return jr, err
	}
	if jr.events == 0 {
		first, last = end, end
	}
	jr.submit, jr.queue = admitted.Sub(posted).Seconds(), first.Sub(admitted).Seconds()
	jr.run, jr.finish = last.Sub(first).Seconds(), end.Sub(last).Seconds()
	jr.total = end.Sub(posted).Seconds()
	err = s.call(ctx, http.MethodGet, "/jobs/"+jr.status.ID, nil, http.StatusOK, &jr.status)
	return jr, err
}

// follow reads a job's NDJSON progress stream until the server closes it
// at the job's end, counting events and returning when the first and the
// last arrived. With feed set, each event is decoded and passed on.
func (s *server) follow(ctx context.Context, id string, feed func(trace.ProgressEvent, time.Time), events *int) (first, last time.Time, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+"/jobs/"+id+"/events", nil)
	if err != nil {
		return first, last, err
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return first, last, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return first, last, fmt.Errorf("GET events of %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		last = now()
		if *events == 0 {
			first = last
		}
		*events++
		if feed != nil {
			var ev trace.ProgressEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				return first, last, fmt.Errorf("event of %s: %w", id, err)
			}
			feed(ev, last)
		}
	}
	return first, last, sc.Err()
}

// call makes one request and decodes the JSON reply, which must come
// with status want.
func (s *server) call(ctx context.Context, method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(raw)))
	}
	return json.Unmarshal(raw, out)
}

// serveSetup starts the server and runs one warm-up job, setups times,
// returning the last server and each setup's seconds.
func (r *run) serveSetup(ctx context.Context) (*server, []float64, error) {
	var s *server
	var setup []float64
	for i := 0; i < r.setups; i++ {
		if s != nil {
			s.close()
		}
		t0 := now()
		var err error
		if s, err = r.startServer(); err != nil {
			return nil, nil, err
		}
		if _, err := s.runJob(ctx, r.w.block[0], r.seed, "warm-up", 0, nil); err != nil {
			s.close()
			return nil, nil, fmt.Errorf("warm-up job: %w", err)
		}
		setup = append(setup, since(t0))
	}
	runtime.GC()
	return s, setup, nil
}

// closedLoop is one client that submits the next job of the sequence as
// soon as its previous one is done, for the run time. Every job is its
// own tenant, so per-tenant quotas never refuse one. With a recorder,
// the jobs of every other round of the mix are traced.
func (r *run) closedLoop(ctx context.Context, s *server) []jobRun {
	var runs []jobRun
	start := now()
	for i := 0; r.more(ctx, start, i); i++ {
		var rec *recorder
		if r.w.tracedRound(i) {
			rec = r.rec
		}
		r.tally.attempt()
		jr, err := s.runJob(ctx, r.w.at(r.seed, i), r.seed, fmt.Sprintf("user%d", i), 0, rec)
		if err != nil {
			r.tally.fail("job %d: %v", i, err)
			continue
		}
		runs = append(runs, jr)
	}
	return runs
}

// checkJob checks a finished job: done, priced at or above its actual
// peak, and, when it executed, bitwise equal to a direct run of the same
// spec, scheme and tiling.
func (r *run) checkJob(jr jobRun, direct map[string]directRun) {
	st := jr.status
	switch {
	case st.State != serve.StateDone || st.Result == nil:
		r.tally.fail("job %s (%s) ended %s: %s", st.ID, jr.job.label(), st.State, st.Error)
	case st.Result.PeakBytes > st.ReservedBytes:
		r.tally.fail("job %s (%s) peaked at %d bytes over its %d reserved", st.ID, jr.job.label(), st.Result.PeakBytes, st.ReservedBytes)
	case jr.job.mode() == fourindex.ModeExecute && st.Result.Checksum != direct[jr.job.label()].checksum:
		r.tally.fail("job %s (%s): checksum %s, direct run %s", st.ID, jr.job.label(), st.Result.Checksum, direct[jr.job.label()].checksum)
	}
}

// directRuns runs each distinct job of a workload whose jobs name their
// scheme directly, outside any timed window, for the checksums its server
// jobs must reproduce.
func (r *run) directRuns(ctx context.Context) (map[string]directRun, error) {
	out := map[string]directRun{}
	for _, j := range distinct(r.w.block) {
		d, err := direct(ctx, j.withDefaultTiles(), r.seed)
		if err != nil {
			return nil, err
		}
		out[j.label()] = d
	}
	return out, nil
}

// serveEndToEnd times the workload's operation in each closed-loop job
// and checks every job.
func (r *run) serveEndToEnd(ctx context.Context) (map[string]float64, error) {
	s, setup, err := r.serveSetup(ctx)
	if err != nil {
		return nil, err
	}
	runs := r.closedLoop(ctx, s)
	s.close()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var ops []float64
	var wall float64
	for _, jr := range runs {
		op := r.w.op(jr)
		ops = append(ops, op)
		wall += op
	}
	values, err := endToEndMetrics(setup, ops, wall)
	if err != nil {
		return nil, err
	}
	var direct map[string]directRun
	if r.w.block[0].mode() == fourindex.ModeExecute {
		if direct, err = r.directRuns(ctx); err != nil {
			return nil, err
		}
	}
	for _, jr := range runs {
		r.checkJob(jr, direct)
	}
	return values, nil
}

// serveTraced runs the closed loop of whole jobs, every other round
// traced, then probes each layer.
func (r *run) serveTraced(ctx context.Context) (map[string]float64, error) {
	s, _, err := r.serveSetup(ctx)
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	runs := r.closedLoop(ctx, s)
	runtime.ReadMemStats(&m1)
	s.close()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ops := float64(len(runs))
	v := map[string]float64{
		"mem.allocs_per_op":   float64(m1.Mallocs-m0.Mallocs) / ops,
		"mem.alloc_mb_per_op": float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / ops,
	}
	var traced, plain []float64
	for _, jr := range runs {
		if jr.root >= 0 {
			traced = append(traced, r.w.op(jr))
		} else {
			plain = append(plain, r.w.op(jr))
		}
	}
	v["trace.overhead_frac"] = median(traced)/median(plain) - 1

	direct, err := r.probeLayers(ctx, v)
	if err != nil {
		return nil, err
	}
	// A job's progress events reach its client late and in bursts while
	// both cores compute, too coarse for phase times; the phases come from
	// the direct runs of the same planned jobs, timed in-process.
	spans, kids := r.rec.closed()
	phaseMetrics(splits(spans, kids, r.directRoots), v)
	for _, jr := range runs {
		r.checkJob(jr, direct)
	}
	serveMetrics(runs, direct, v)
	return v, nil
}

// serveMetrics reduces jobs to the serve.* metrics; run time beyond the
// direct transform of the same planned job is the server's overhead.
func serveMetrics(runs []jobRun, direct map[string]directRun, v map[string]float64) {
	var submit, queue, run, finish, overhead, events []float64
	for _, jr := range runs {
		submit = append(submit, jr.submit)
		queue = append(queue, jr.queue)
		run = append(run, jr.run)
		finish = append(finish, jr.finish)
		overhead = append(overhead, jr.run-direct[jr.job.label()].seconds)
		events = append(events, float64(jr.events))
	}
	v["serve.submit_s"] = median(submit)
	v["serve.queue_wait_s"] = median(queue)
	v["serve.run_s"] = median(run)
	v["serve.finish_s"] = median(finish)
	v["serve.overhead_s"] = median(overhead)
	v["serve.events_per_op"] = mean(events)
}
