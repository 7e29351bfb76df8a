package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fourindex/internal/trace"
)

// TestDrainResumeBitwiseIdentical is the drain chaos proof: a job is
// drained mid-run (after its second slab, held there deterministically
// by the progress hook), the server persists its queue and exits, and
// a new server on the same state directory resumes the job from its
// checkpoint — producing a result bitwise identical (same SHA-256 over
// the raw float64 bit patterns of C) to an uninterrupted run.
func TestDrainResumeBitwiseIdentical(t *testing.T) {
	spec := smallExecuteSpec("alice")

	refFinal := runUninterrupted(t, spec)
	cfg := testConfig(t)
	id := drainMidRun(t, cfg, spec)
	ckptPath := filepath.Join(cfg.StateDir, "ckpt", id, "fullyfused.ckpt")

	// Second server on the same state dir: the interrupted job is
	// re-queued, resumes from its checkpoint, and completes.
	s2 := newTestServer(t, cfg)
	final := waitJob(t, s2, id)
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("resumed job: state %q (%s)", final.State, final.Error)
	}
	if !final.Resumed {
		t.Fatalf("resumed job did not report finding its predecessor's checkpoint")
	}
	if final.Result.ChecksumSHA256 != refFinal.Result.ChecksumSHA256 {
		t.Fatalf("drain/resume broke bitwise reproducibility:\n  resumed   %s\n  reference %s",
			final.Result.ChecksumSHA256, refFinal.Result.ChecksumSHA256)
	}
	if final.Result.FrobeniusSq != refFinal.Result.FrobeniusSq {
		t.Fatalf("Frobenius norms differ: %v vs %v", final.Result.FrobeniusSq, refFinal.Result.FrobeniusSq)
	}

	// The completed run dropped its checkpoint.
	if _, err := os.Stat(ckptPath); !os.IsNotExist(err) {
		t.Fatalf("checkpoint not dropped after successful resume (stat err: %v)", err)
	}
}

// TestRestoreStateWithStrassenField restores a jobs.json written by an
// older fouridxd, whose job specs and persisted plans still carry the
// since-removed "strassen" GEMM-path field. The unknown field must be
// ignored: the drained job restores, resumes from its checkpoint and
// finishes with the checksum of a fresh run, and the state the new
// server writes no longer mentions the field.
func TestRestoreStateWithStrassenField(t *testing.T) {
	spec := smallExecuteSpec("alice")
	refFinal := runUninterrupted(t, spec)
	cfg := testConfig(t)
	id := drainMidRun(t, cfg, spec)

	path := filepath.Join(cfg.StateDir, stateFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber() // keep the uint64 integral seeds exact
	var st map[string]any
	if err := dec.Decode(&st); err != nil {
		t.Fatal(err)
	}
	for _, j := range st["jobs"].([]any) {
		job := j.(map[string]any)
		job["spec"].(map[string]any)["strassen"] = true
		job["plan"].(map[string]any)["strassen"] = true
	}
	if raw, err = json.Marshal(st); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, cfg)
	final := waitJob(t, s2, id)
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("restored job: state %q (%s)", final.State, final.Error)
	}
	if !final.Resumed {
		t.Fatalf("restored job did not resume from its checkpoint")
	}
	if final.Result.ChecksumSHA256 != refFinal.Result.ChecksumSHA256 {
		t.Fatalf("restored job checksum %s, fresh run %s",
			final.Result.ChecksumSHA256, refFinal.Result.ChecksumSHA256)
	}
	raw, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("strassen")) {
		t.Errorf("re-persisted state still carries the strassen field:\n%s", raw)
	}
}

// TestDrainPersistsQueuedJobs drains a server whose queue still holds
// a never-started job and checks the restarted server runs it.
func TestDrainPersistsQueuedJobs(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxRunning = 1
	s1, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	blocked, release := blockFirstMark(s1)
	running, err := s1.Submit(context.Background(), smallExecuteSpec("alice"))
	if err != nil {
		t.Fatalf("submit running: %v", err)
	}
	<-blocked
	queued, err := s1.Submit(context.Background(), smallExecuteSpec("bob"))
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}

	drainErr := make(chan error, 1)
	go func() { drainErr <- s1.Drain(context.Background()) }()
	<-s1.baseCtx.Done()
	close(release)
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// Submits during/after drain are refused.
	if _, err := s1.Submit(context.Background(), smallExecuteSpec("carol")); err != ErrDraining {
		t.Fatalf("submit while draining: err = %v, want ErrDraining", err)
	}

	s2 := newTestServer(t, cfg)
	for _, id := range []string{running.ID, queued.ID} {
		if final := waitJob(t, s2, id); final.State != StateDone {
			t.Fatalf("job %s after restart: state %q (%s), want done", id, final.State, final.Error)
		}
	}
	// The interrupted job resumed; the queued one started fresh.
	if st := waitJob(t, s2, running.ID); !st.Resumed {
		t.Fatalf("interrupted job did not resume from checkpoint")
	}
	if st := waitJob(t, s2, queued.ID); st.Resumed {
		t.Fatalf("never-started job claims to have resumed")
	}
}

// drainMidRun submits spec (a multi-slab fullyfused job) to a server on
// cfg, drains that server while the job is held after its second slab
// mark, and returns the interrupted job's ID. On return cfg.StateDir
// holds the queue snapshot and the job's slab checkpoint.
func drainMidRun(t *testing.T, cfg Config, spec JobSpec) string {
	t.Helper()
	// First server: hold the job at its second slab mark, so at least
	// one slab is checkpointed and most of the work remains.
	s1, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	reached := make(chan struct{})
	release := make(chan struct{})
	marks := 0
	s1.progressHook = func(id string, ev trace.ProgressEvent) {
		if ev.Kind != "mark" {
			return
		}
		marks++
		if marks == 2 {
			close(reached)
			<-release
		}
	}
	j1, err := s1.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-reached

	// Drain while the job is provably mid-run. The hook releases the
	// schedule only after the server context is canceled, so the job
	// cannot finish before the drain reaches it: it must observe the
	// cancellation at its next slab boundary.
	drainErr := make(chan error, 1)
	go func() { drainErr <- s1.Drain(context.Background()) }()
	<-s1.baseCtx.Done()
	close(release)
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain: %v", err)
	}

	s1.mu.Lock()
	state := s1.jobs[j1.ID].State
	s1.mu.Unlock()
	if state != StateInterrupted {
		t.Fatalf("drained job in state %q, want interrupted", state)
	}

	// Drain left durable state behind: the queue snapshot and the
	// job's slab checkpoint.
	if _, err := os.Stat(filepath.Join(cfg.StateDir, stateFile)); err != nil {
		t.Fatalf("queue snapshot missing after drain: %v", err)
	}
	if _, err := os.Stat(filepath.Join(cfg.StateDir, "ckpt", j1.ID, "fullyfused.ckpt")); err != nil {
		t.Fatalf("slab checkpoint missing after drain: %v", err)
	}
	return j1.ID
}

// runUninterrupted runs spec to completion on a throwaway server and
// returns its final status: the reference a resumed run must match.
func runUninterrupted(t *testing.T, spec JobSpec) statusJSON {
	t.Helper()
	ref := newTestServer(t, testConfig(t))
	job, err := ref.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("reference submit: %v", err)
	}
	final := waitJob(t, ref, job.ID)
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("reference job: state %q (%s)", final.State, final.Error)
	}
	return final
}
