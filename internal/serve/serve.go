// Package serve is the multi-tenant transform job server behind
// cmd/fouridxd: a long-running HTTP/JSON service accepting concurrent
// four-index transform requests and running them against the shared
// process resources — one BLAS worker pool, one aggregate-memory
// budget — that a single machine actually has.
//
// The design is built from the repository's existing robustness
// machinery rather than alongside it:
//
//   - Admission control is built on the paper's data-movement
//     machinery: lb.ConfigMinMemory (Section 5) is the analytic floor
//     that fast-rejects jobs no tiling could ever fit, and the binding
//     reservation is an exact cost-mode dry run of the job's schedule —
//     the simulator performs the same allocation sequence as execution,
//     so the priced peak is the run's peak, not an estimate. The sum of
//     admitted reservations never exceeds Config.MemBudgetBytes, and
//     each reservation is handed to the job as its
//     Options.GlobalMemBytes so the GA runtime enforces at run time
//     what admission promised at submit time.
//
//   - Backpressure is explicit: a full queue or an exhausted per-tenant
//     quota rejects with 429 and a Retry-After header; a job that could
//     never fit the budget rejects with 422 immediately.
//
//   - Cancellation is the cooperative fourindex.RunContext path: every
//     job runs under its own context, deadlines and DELETE map to
//     context cancellation, and a canceled schedule stops at its next
//     l-slab or stage boundary — exactly where its checkpoints live.
//
//   - Graceful drain is checkpoint-restart (internal/faults) pointed at
//     disk: Drain cancels running jobs, their schedules leave a
//     FileCheckpoint of the last completed slab, the queue is persisted
//     to jobs.json, and a restarted server resumes every interrupted
//     job from its checkpoint, reproducing the uninterrupted result
//     bitwise (the drain chaos test pins this).
//
// Job progress streams to clients through the trace subsystem's
// coarse progress listener (slab marks, restarts, phase spans), and
// GET /metrics exposes per-tenant counters next to the admission
// gauges. The package deliberately reads no wall clock: scheduling is
// event-driven, deadlines use context timers, and Retry-After is a
// fixed hint, keeping the determinism analyzer's discipline intact.
package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"fourindex/internal/blas"
	"fourindex/internal/cluster"
	"fourindex/internal/trace"
)

// Config parametrises a Server.
type Config struct {
	// MemBudgetBytes is the server-wide aggregate-memory budget jobs
	// are admitted against. Required (> 0): without it admission
	// control has nothing to enforce.
	MemBudgetBytes int64
	// StateDir is where the server persists its queue (jobs.json) and
	// per-job checkpoint directories (ckpt/<jobID>/). Required: drain
	// and resume are not optional behaviours of this server.
	StateDir string
	// Procs is the default per-job parallel process count (0 = 4).
	Procs int
	// Workers sizes the process-wide BLAS worker pool, set once at
	// construction (0 = runtime.NumCPU()). Concurrent jobs share this
	// pool instead of each fanning out their own goroutines.
	Workers int
	// MaxRunning caps concurrently executing jobs (0 = 2).
	MaxRunning int
	// MaxQueue caps jobs waiting for admission across all tenants
	// (0 = 64). Submits beyond it are rejected with 429.
	MaxQueue int
	// TenantQuota caps queued-or-running jobs per tenant (0 = 8).
	TenantQuota int
	// Machine names the cluster model ("A" | "B" | "C", 0 = "B") used
	// for cost-mode simulation and "auto" scheme planning.
	Machine string
}

// withDefaults validates and fills defaults.
func (c Config) withDefaults() (Config, error) {
	if c.MemBudgetBytes <= 0 {
		return c, fmt.Errorf("serve: config needs a positive MemBudgetBytes")
	}
	if c.StateDir == "" {
		return c, fmt.Errorf("serve: config needs a StateDir for drain/resume state")
	}
	if c.Procs <= 0 {
		c.Procs = 4
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.MaxRunning <= 0 {
		c.MaxRunning = 2
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.TenantQuota <= 0 {
		c.TenantQuota = 8
	}
	if c.Machine == "" {
		c.Machine = "B"
	}
	return c, nil
}

// Server is the transform job service: admission control, a priority
// queue with tenant quotas, a bounded pool of running jobs, progress
// fan-out and drain/resume. Construct with New, expose Handler over
// HTTP, stop with Drain (graceful) or Close (abrupt).
type Server struct {
	cfg Config
	run *cluster.Run // machine model for cost mode and "auto"

	baseCtx context.Context // parent of every job context
	stop    context.CancelFunc
	wake    chan struct{}  // nudges the dispatch loop
	wg      sync.WaitGroup // running jobs + dispatch loop

	events *eventHub

	// progressHook, when set (tests only, before any submit), is invoked
	// synchronously on the job's goroutine after each published progress
	// event; blocking in it holds the schedule at that boundary, which
	// is how the drain test pins "cancellation arrives mid-run" without
	// timing assumptions.
	progressHook func(jobID string, ev trace.ProgressEvent)

	mu         sync.Mutex
	jobs       map[string]*Job // every job ever seen, by ID
	queue      *jobQueue
	adm        *admission
	nextSeq    int
	running    int
	draining   bool
	tenants    map[string]*tenantCounters
	persistErr error // last failed background state write, for /healthz
}

// New builds a Server from cfg, loading any persisted queue from a
// previous (drained) process in cfg.StateDir and sizing the shared
// BLAS worker pool. The dispatch loop starts immediately.
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	machine, err := cluster.ByName(cfg.Machine)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	run, err := machine.Configure(cfg.Procs, 0)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(cfg.StateDir, "ckpt"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: state dir: %w", err)
	}
	blas.SetWorkers(cfg.Workers)

	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		run:     &run,
		baseCtx: ctx,
		stop:    cancel,
		wake:    make(chan struct{}, 1),
		events:  newEventHub(),
		jobs:    make(map[string]*Job),
		queue:   newJobQueue(cfg.MaxQueue, cfg.TenantQuota),
		adm:     &admission{budget: cfg.MemBudgetBytes},
		tenants: make(map[string]*tenantCounters),
	}
	if err := s.loadState(); err != nil {
		cancel()
		return nil, err
	}
	s.wg.Add(1)
	go s.dispatchLoop()
	s.nudge()
	return s, nil
}

// nudge wakes the dispatch loop without blocking.
func (s *Server) nudge() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// dispatchLoop launches queued jobs whenever capacity frees up, until
// the server context is canceled.
func (s *Server) dispatchLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-s.wake:
			s.dispatch()
		}
	}
}

// dispatch starts as many queued jobs as slots and budget allow,
// highest priority first. A job whose reservation does not fit the
// remaining budget is skipped (first-fit by priority): smaller or
// later jobs may still run, and the skipped job is retried on the next
// release.
func (s *Server) dispatch() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	for s.running < s.cfg.MaxRunning {
		j := s.queue.popWhere(func(j *Job) bool {
			return s.adm.tryReserve(j.plan.reservedBytes)
		})
		if j == nil {
			return
		}
		j.State = StateRunning
		s.running++
		s.wg.Add(1)
		go s.runJob(j)
	}
}

// Close abandons the server without draining: job contexts are
// canceled, but the queue is not persisted and no state is written
// beyond the checkpoints schedules already saved. Tests use it;
// production shutdown is Drain.
func (s *Server) Close() {
	s.stop()
	s.wg.Wait()
}
