package main

import (
	"fmt"
	"math/rand"

	"fourindex"
	"fourindex/internal/serve"
)

const (
	// procs is the simulated process count of every transform, the job
	// server's default.
	procs = 4
	// cores is GOMAXPROCS and the GEMM worker budget of most workloads:
	// the two cores the benchmark is sized for.
	cores = 2
	// costTilesPerDim sets the tile width of the serve-cost jobs to
	// orbitals/costTilesPerDim. The server's default of 24 tiles per
	// dimension prices one job in about 3 s on two cores, too few jobs
	// for a tail percentile; 16 keeps the pricing path identical at
	// about 0.4 s a job.
	costTilesPerDim = 16
)

// job is one operation of a workload's mix: a transform run directly
// (exec workloads) or a job submitted to the server (serve workloads).
type job struct {
	N int
	// Molecule names a catalog system (cost mode; N is its orbital count).
	Molecule string
	// Scheme is a schedule name, or "auto" to let the server plan it.
	Scheme string
	// TileN and TileL are the tile widths; 0 keeps the planner's default.
	TileN, TileL int
}

// label names the job in spans and per-spec tables.
func (j job) label() string {
	if j.Molecule != "" {
		return j.Molecule + "/" + j.Scheme
	}
	return fmt.Sprintf("n%d/%s/t%d-%d", j.N, j.Scheme, j.TileN, j.TileL)
}

// mode is the transform mode the job runs in.
func (j job) mode() fourindex.Mode {
	if j.Molecule != "" {
		return fourindex.ModeCost
	}
	return fourindex.ModeExecute
}

// spec is the job as the server's wire type.
func (j job) spec(tenant string, seed uint64) serve.JobSpec {
	sp := serve.JobSpec{Tenant: tenant, Scheme: j.Scheme, Procs: procs, TileN: j.TileN, TileL: j.TileL}
	if j.Molecule != "" {
		sp.Molecule = j.Molecule
	} else {
		sp.N, sp.Seed, sp.Mode = j.N, seed, "execute"
	}
	return sp
}

// workload is one benchmark input set. Each runs in its own process.
type workload struct {
	name  string
	serve bool
	// cores sets GOMAXPROCS and the GEMM (and server) worker budget.
	cores int
	// op is the part of a serve job the end-to-end metrics time.
	op func(jobRun) float64
	// block is one balanced round of the mix. The seed shuffles every
	// round, so the mix stays balanced wherever a time-bounded run stops.
	block []job
	// probeN and probeTile size the GEMM, ga and integral probes: the
	// workload's extent and tile width (a nominal execute shape for
	// serve-cost, which never executes).
	probeN, probeTile int
}

// at returns the i-th job of the run's sequence.
func (w workload) at(seed int64, i int) job {
	round := i / len(w.block)
	perm := rand.New(rand.NewSource(seed*7919 + int64(round))).Perm(len(w.block))
	return w.block[perm[i%len(w.block)]]
}

// tracedRound reports whether a traced pass traces the i-th job: those of
// every other round, so traced and untraced jobs share one mix.
func (w workload) tracedRound(i int) bool { return i/len(w.block)%2 == 0 }

// specSeed derives the integral generator seed from the run seed. It is
// never zero, which the server would replace with its default.
func specSeed(seed int64) uint64 { return uint64(seed)*2 + 1 }

// workloads returns the benchmark's workloads; quick shrinks each to a
// smoke-test size (n=16, coarse cost tiling).
func workloads(quick bool) ([]workload, error) {
	n := func(full, small int) int {
		if quick {
			return small
		}
		return full
	}
	tilesPerDim := n(costTilesPerDim, 6)
	var molecules []job
	for _, name := range []string{"Hyperpolar", "C60H20", "Uracil", "C40H56", "Shell-Mixed"} {
		m, err := fourindex.MoleculeByName(name)
		if err != nil {
			return nil, err
		}
		t := (m.Orbitals + tilesPerDim - 1) / tilesPerDim
		molecules = append(molecules, job{N: m.Orbitals, Molecule: name, Scheme: "auto", TileN: t})
	}
	small, large := n(40, 12), n(48, 16)
	return []workload{
		{
			name: "exec-gemm", cores: cores,
			block: []job{{N: n(56, 16), Scheme: "unfused"}},
			// The default tiling: n/6.
			probeN: n(56, 16), probeTile: n(56, 16) / 6,
		},
		{
			name: "exec-tiles", cores: cores,
			block:  []job{{N: n(48, 16), Scheme: "fullyfused-inner", TileN: 4, TileL: 4}},
			probeN: n(48, 16), probeTile: 4,
		},
		{
			// The admission (POST to 202), which is the pricing a submitter
			// waits for. The rest of each job is a short simulation plus
			// writes of the server's state, whose cost follows the disk's
			// (see README), and the closed loop keeps them out of the next
			// admission. Pricing is serial: a second core saves under 10%
			// of it, and the wake-ups of its simulations' barriers across
			// two cores stall in bursts of about 3x on a shared machine.
			name: "serve-cost", serve: true, cores: 1,
			op:     func(jr jobRun) float64 { return jr.submit },
			block:  molecules,
			probeN: large, probeTile: 8,
		},
		{
			// POST until the schedule's last progress event: the job's
			// admission, queueing and run with the server's tracer, event
			// stream and checkpoint store, but not the state write after it,
			// whose cost follows the disk's (see README). One checkpoint
			// record per job: a fused12-34 stage and a single
			// fullyfused-inner l-slab; a schedule that replaces its record
			// (unfused stages, one l-slab at a time) writes to the disk
			// inside the run.
			name: "serve-exec", serve: true, cores: cores,
			op: func(jr jobRun) float64 { return jr.submit + jr.queue + jr.run },
			// Weighting n=48 3:1 puts the median inside the n=48 fused12-34
			// class and p75 inside the slowest, never on the gap between two.
			block: []job{
				{N: small, Scheme: "fused12-34", TileN: 8, TileL: 8},
				{N: small, Scheme: "fullyfused-inner", TileN: 8, TileL: small},
				{N: large, Scheme: "fused12-34", TileN: 8, TileL: 8},
				{N: large, Scheme: "fused12-34", TileN: 8, TileL: 8},
				{N: large, Scheme: "fused12-34", TileN: 8, TileL: 8},
				{N: large, Scheme: "fullyfused-inner", TileN: 8, TileL: large},
				{N: large, Scheme: "fullyfused-inner", TileN: 8, TileL: large},
				{N: large, Scheme: "fullyfused-inner", TileN: 8, TileL: large},
			},
			probeN: large, probeTile: 8,
		},
	}, nil
}

// workloadByName finds a workload.
func workloadByName(name string, quick bool) (workload, error) {
	ws, err := workloads(quick)
	if err != nil {
		return workload{}, err
	}
	for _, w := range ws {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
