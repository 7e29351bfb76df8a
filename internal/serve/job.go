package serve

import (
	"context"
	"fmt"

	"fourindex/internal/chem"
	ifx "fourindex/internal/fourindex"
	"fourindex/internal/ga"
	"fourindex/internal/lb/chain"
)

// JobSpec is the client-facing description of one transform request,
// the JSON body of POST /jobs.
type JobSpec struct {
	// Tenant identifies the submitting tenant; required. Quotas and
	// metrics are per tenant.
	Tenant string `json:"tenant"`
	// Priority orders the queue: higher runs first, ties run in
	// submission order.
	Priority int `json:"priority,omitempty"`
	// Molecule names a catalog benchmark system; it implies cost mode
	// and overrides N.
	Molecule string `json:"molecule,omitempty"`
	// N is the orbital count for synthetic problems (ignored when
	// Molecule is set).
	N int `json:"n,omitempty"`
	// Sym is the spatial symmetry order, a power of two (0 = 1).
	Sym int `json:"sym,omitempty"`
	// Seed seeds the synthetic integral generator (0 = 42).
	Seed uint64 `json:"seed,omitempty"`
	// Scheme is a schedule name ("unfused", "fullyfused-inner", ...)
	// or "auto" to let the frontier tuner choose (default "auto").
	Scheme string `json:"scheme,omitempty"`
	// Mode is "execute" or "cost" (default: cost for molecules and
	// n >= 128, execute otherwise).
	Mode string `json:"mode,omitempty"`
	// Procs overrides the server's default per-job process count.
	Procs int `json:"procs,omitempty"`
	// TileN and TileL override the planner's tile widths.
	TileN int `json:"tileN,omitempty"`
	TileL int `json:"tileL,omitempty"`
	// DeadlineSeconds cancels the job if it runs longer (0 = none).
	DeadlineSeconds float64 `json:"deadlineSeconds,omitempty"`
	// Chain submits a chain-analysis job instead of a transform: the
	// generalized bound engine derives thresholds, fusion rankings and
	// frontier curves for the described contraction chain, and admission
	// prices the job by the chain's derived minimum-memory floor.
	// Mutually exclusive with Molecule/N/Scheme.
	Chain *chain.Chain `json:"chain,omitempty"`
	// CapacityElements prices the chain at a specific fast-memory
	// capacity (0 = the server's memory budget in elements). Only
	// meaningful with Chain.
	CapacityElements int64 `json:"capacityElements,omitempty"`
}

// Job states, as reported by the status API.
const (
	// StateQueued is waiting for a run slot and a memory reservation.
	StateQueued = "queued"
	// StateRunning is executing.
	StateRunning = "running"
	// StateDone completed successfully.
	StateDone = "done"
	// StateFailed hit a non-cancellation error.
	StateFailed = "failed"
	// StateCanceled was canceled by DELETE or its deadline.
	StateCanceled = "canceled"
	// StateInterrupted was stopped mid-run by a drain; its checkpoint
	// is on disk and a restarted server re-queues and resumes it.
	StateInterrupted = "interrupted"
)

// JobResult is the outcome of a completed job.
type JobResult struct {
	// Scheme is the schedule that ran; ChosenScheme differs only for
	// the hybrid driver.
	Scheme       string `json:"scheme"`
	ChosenScheme string `json:"chosenScheme"`
	// SimSeconds is the machine model's simulated wall time.
	SimSeconds float64 `json:"simSeconds"`
	// PeakBytes is the high-water aggregate-memory footprint the run
	// actually reached (always <= the job's admission reservation).
	PeakBytes int64 `json:"peakBytes"`
	// CommElements is the inter-node data movement in elements.
	CommElements int64 `json:"commElements"`
	// Flops is the arithmetic performed (execute) or charged (cost).
	Flops int64 `json:"flops"`
	// Restarts counts in-run checkpoint restarts after injected or
	// real crashes (drain/resume does not increment it).
	Restarts int `json:"restarts"`
	// ChecksumSHA256 fingerprints the packed C tensor bit-for-bit
	// (execute mode only): equal checksums mean bitwise-equal results,
	// which is how the drain test proves resume fidelity.
	ChecksumSHA256 string `json:"checksumSha256,omitempty"`
	// FrobeniusSq is |C|_F^2, a humanly comparable summary of the same
	// tensor (execute mode only).
	FrobeniusSq float64 `json:"frobeniusSq,omitempty"`
	// ChainReport is the bound engine's analysis (chain jobs only).
	ChainReport *ifx.ChainReport `json:"chainReport,omitempty"`
}

// Job is one submitted transform request and its lifecycle state.
// Fields other than ID and Seq are guarded by the server mutex.
type Job struct {
	// ID is the server-assigned job identifier ("j17").
	ID string
	// Seq is the submission sequence number (the queue tie-break).
	Seq int
	// Spec is the validated client request.
	Spec JobSpec
	// State is one of the State* constants.
	State string
	// Error carries the failure reason in StateFailed/StateCanceled.
	Error string
	// Resumed records that the job found a checkpoint from a previous
	// (drained) process and continued from it.
	Resumed bool
	// Result is set in StateDone.
	Result *JobResult

	plan   jobPlan
	cancel context.CancelFunc
	// chainReport carries a chain job's engine analysis from executeJob
	// to runJob's result recording.
	chainReport *ifx.ChainReport
}

// jobPlan is the admission-time resolution of a JobSpec: the concrete
// schedule, tiling, mode and — centrally — the memory reservation the
// job runs under.
type jobPlan struct {
	spec   chem.Spec
	scheme ifx.Scheme
	mode   ga.Mode
	procs  int
	tileN  int
	tileL  int
	// reservedBytes is the admission reservation: the exact peak
	// footprint of a cost-mode dry run of this schedule, clamped up to
	// the ConfigMinMemory floor. It becomes the job's
	// Options.GlobalMemBytes.
	reservedBytes int64
	// minBytes is the ConfigMinMemory feasibility floor the
	// reservation is cross-checked against (reservedBytes >= minBytes
	// always; the admission property test pins this).
	minBytes int64
	// chainSpec marks a chain-analysis job (nil for transforms); the
	// reservation then derives from the chain's minimum-memory floor and
	// capacityElements is the capacity the report prices at.
	chainSpec        *chain.Chain
	capacityElements int64
}

// maxExecuteOrbitals bounds execute-mode problems: beyond this the
// O(n^5) arithmetic makes an in-process job unreasonable, and cost
// mode models the same data movement exactly.
const maxExecuteOrbitals = 96

// normalize validates sp and fills defaults, returning the resolved
// orbital count, symmetry and mode.
func (sp JobSpec) normalize() (JobSpec, error) {
	if sp.Tenant == "" {
		return sp, fmt.Errorf("serve: job needs a tenant")
	}
	if sp.Chain != nil {
		// Chain-analysis job: the chain description is the whole problem,
		// so the transform knobs must be absent. Validation errors are
		// typed (the HTTP layer maps them to 422, never a panic).
		if sp.Molecule != "" || sp.N != 0 || sp.Scheme != "" || sp.Mode != "" {
			return sp, fmt.Errorf("serve: chain jobs take no molecule, n, scheme or mode")
		}
		if err := sp.Chain.Validate(); err != nil {
			return sp, err
		}
		if sp.CapacityElements < 0 {
			return sp, &chain.CapacityError{S: sp.CapacityElements, Reason: "capacityElements must be positive (or 0 for the server budget)"}
		}
		if sp.DeadlineSeconds < 0 {
			return sp, fmt.Errorf("serve: negative deadline")
		}
		return sp, nil
	}
	if sp.CapacityElements != 0 {
		return sp, fmt.Errorf("serve: capacityElements only applies to chain jobs")
	}
	if sp.Molecule != "" {
		m, err := chem.ByName(sp.Molecule)
		if err != nil {
			return sp, fmt.Errorf("serve: %w", err)
		}
		sp.N = m.Orbitals
		if sp.Mode == "" {
			sp.Mode = "cost"
		}
		if sp.Mode != "cost" {
			return sp, fmt.Errorf("serve: molecule %s (n=%d) requires cost mode", sp.Molecule, sp.N)
		}
	}
	if sp.N <= 0 {
		return sp, fmt.Errorf("serve: job needs a positive orbital count n or a molecule")
	}
	if sp.Sym == 0 {
		sp.Sym = 1
	}
	if sp.Seed == 0 {
		sp.Seed = 42
	}
	if sp.Scheme == "" {
		sp.Scheme = "auto"
	}
	switch sp.Mode {
	case "":
		if sp.N >= 128 {
			sp.Mode = "cost"
		} else {
			sp.Mode = "execute"
		}
	case "execute", "cost":
	default:
		return sp, fmt.Errorf("serve: unknown mode %q (want execute or cost)", sp.Mode)
	}
	if sp.Mode == "execute" && sp.N > maxExecuteOrbitals {
		return sp, fmt.Errorf("serve: execute mode caps at n=%d (got %d); submit cost mode for molecule-scale problems", maxExecuteOrbitals, sp.N)
	}
	if sp.DeadlineSeconds < 0 {
		return sp, fmt.Errorf("serve: negative deadline")
	}
	return sp, nil
}

// statusJSON is the wire shape of a job's status.
type statusJSON struct {
	ID            string     `json:"id"`
	Tenant        string     `json:"tenant"`
	State         string     `json:"state"`
	Priority      int        `json:"priority"`
	Chain         string     `json:"chain,omitempty"`
	N             int        `json:"n"`
	Sym           int        `json:"sym"`
	Scheme        string     `json:"scheme"`
	Mode          string     `json:"mode"`
	TileN         int        `json:"tileN"`
	TileL         int        `json:"tileL"`
	ReservedBytes int64      `json:"reservedBytes"`
	Resumed       bool       `json:"resumed,omitempty"`
	Error         string     `json:"error,omitempty"`
	Result        *JobResult `json:"result,omitempty"`
}

// status renders the job for the API. Caller holds the server mutex.
func (j *Job) status() statusJSON {
	if c := j.plan.chainSpec; c != nil {
		return statusJSON{
			ID:            j.ID,
			Tenant:        j.Spec.Tenant,
			State:         j.State,
			Priority:      j.Spec.Priority,
			Chain:         c.Name,
			ReservedBytes: j.plan.reservedBytes,
			Error:         j.Error,
			Result:        j.Result,
		}
	}
	return statusJSON{
		ID:            j.ID,
		Tenant:        j.Spec.Tenant,
		State:         j.State,
		Priority:      j.Spec.Priority,
		N:             j.plan.spec.N,
		Sym:           j.plan.spec.S,
		Scheme:        j.plan.scheme.String(),
		Mode:          j.Spec.Mode,
		TileN:         j.plan.tileN,
		TileL:         j.plan.tileL,
		ReservedBytes: j.plan.reservedBytes,
		Resumed:       j.Resumed,
		Error:         j.Error,
		Result:        j.Result,
	}
}
