// Package cluster describes distributed-memory machines and provides the
// analytic cost model used to simulate the paper's three evaluation
// platforms (Section 8):
//
//	System A: small Infiniband cluster, 2x4-core 2.53 GHz Xeon E5630,
//	          24 GB/node, QDR Infiniband (40 Gb/s).
//	System B: 18 large-memory nodes, 2x14-core 2.4 GHz Xeon E5-2680v4,
//	          512 GB/node.
//	System C: large supercomputer, dual-socket 8-core 2.6 GHz Xeon
//	          E5-2670, 128 GB/node, FDR Infiniband (14 Gb/s per the
//	          paper's text).
//
// A Run binds a machine to a rank count and derives per-rank resources
// (cores, memory share, network share). The cost model charges each rank
// flop time and communication time (latency + volume/bandwidth) and takes
// the maximum across ranks at barriers, which is how load imbalance shows
// up in simulated wall time.
package cluster

import "fmt"

// Machine is a homogeneous distributed-memory cluster description.
type Machine struct {
	Name            string
	Nodes           int     // nodes available
	CoresPerNode    int     // physical cores per node
	GHz             float64 // nominal core clock
	FlopsPerCycle   float64 // sustained DGEMM flops per cycle per core
	MemPerNodeBytes int64   // physical memory per node
	NetBytesPerSec  float64 // injection bandwidth per node
	NetLatencySec   float64 // per-message network latency
	MemBytesPerSec  float64 // local memory bandwidth per node
	// DiskBytesPerSec is the cluster-wide collective bandwidth to the
	// parallel file system — shared by every rank, and very low
	// relative to memory (the Section 3 motivation for zero-spill
	// schedules).
	DiskBytesPerSec float64
}

// SystemA returns the paper's System A.
func SystemA() Machine {
	return Machine{
		Name:            "SystemA",
		Nodes:           64,
		CoresPerNode:    8, // two 4-core E5630
		GHz:             2.53,
		FlopsPerCycle:   2.0, // conservative sustained DGEMM rate, SSE era
		MemPerNodeBytes: 24 << 30,
		NetBytesPerSec:  40e9 / 8 * 0.8, // QDR 40 Gb/s, 80% efficiency
		NetLatencySec:   2e-6,
		MemBytesPerSec:  20e9,
		DiskBytesPerSec: 1e9, // small-cluster shared NFS/Lustre
	}
}

// SystemB returns the paper's System B.
func SystemB() Machine {
	return Machine{
		Name:            "SystemB",
		Nodes:           18,
		CoresPerNode:    28, // two 14-core E5-2680v4
		GHz:             2.4,
		FlopsPerCycle:   4.0, // AVX2 FMA era, conservative sustained
		MemPerNodeBytes: 512 << 30,
		NetBytesPerSec:  56e9 / 8 * 0.8,
		NetLatencySec:   1.5e-6,
		MemBytesPerSec:  60e9,
		DiskBytesPerSec: 4e9,
	}
}

// SystemC returns the paper's System C.
func SystemC() Machine {
	return Machine{
		Name:            "SystemC",
		Nodes:           1440,
		CoresPerNode:    16, // dual-socket 8-core E5-2670
		GHz:             2.6,
		FlopsPerCycle:   3.0,
		MemPerNodeBytes: 128 << 30,
		NetBytesPerSec:  14e9 / 8 * 0.8, // FDR quoted at 14 Gb/s in the paper
		NetLatencySec:   1.5e-6,
		MemBytesPerSec:  40e9,
		DiskBytesPerSec: 30e9,
	}
}

// ByName returns one of the three paper systems.
func ByName(name string) (Machine, error) {
	switch name {
	case "SystemA", "A", "a":
		return SystemA(), nil
	case "SystemB", "B", "b":
		return SystemB(), nil
	case "SystemC", "C", "c":
		return SystemC(), nil
	}
	return Machine{}, fmt.Errorf("cluster: unknown machine %q", name)
}

// AggregateMemBytes returns total cluster memory over nodes nodes (or all
// nodes when nodes <= 0).
func (m Machine) AggregateMemBytes(nodes int) int64 {
	if nodes <= 0 || nodes > m.Nodes {
		nodes = m.Nodes
	}
	return int64(nodes) * m.MemPerNodeBytes
}

// Run binds a machine to a specific rank layout for one experiment.
type Run struct {
	Machine      Machine
	Ranks        int // total parallel processes
	RanksPerNode int
	CoresPerRank int
	NodesUsed    int
}

// Configure lays out totalCores worth of parallelism as ranks. Following
// the paper's convention, "cores" counts map 1:1 to ranks unless
// ranksPerNode caps density (System C runs used "4 ranks per node");
// remaining node cores are attributed to the rank's compute rate.
func (m Machine) Configure(ranks, ranksPerNode int) (Run, error) {
	if ranks <= 0 {
		return Run{}, fmt.Errorf("cluster: non-positive rank count %d", ranks)
	}
	if ranksPerNode <= 0 || ranksPerNode > m.CoresPerNode {
		ranksPerNode = m.CoresPerNode
	}
	nodes := (ranks + ranksPerNode - 1) / ranksPerNode
	if nodes > m.Nodes {
		return Run{}, fmt.Errorf("cluster: %s has %d nodes, need %d for %d ranks at %d/node",
			m.Name, m.Nodes, nodes, ranks, ranksPerNode)
	}
	return Run{
		Machine:      m,
		Ranks:        ranks,
		RanksPerNode: ranksPerNode,
		CoresPerRank: m.CoresPerNode / ranksPerNode,
		NodesUsed:    nodes,
	}, nil
}

// FlopsPerSecPerRank returns the sustained flop rate attributed to one rank.
func (r *Run) FlopsPerSecPerRank() float64 {
	return float64(r.CoresPerRank) * r.Machine.GHz * 1e9 * r.Machine.FlopsPerCycle
}

// NetBytesPerSecPerRank returns the network bandwidth share of one rank.
func (r *Run) NetBytesPerSecPerRank() float64 {
	return r.Machine.NetBytesPerSec / float64(r.RanksPerNode)
}

// MemBytesPerSecPerRank returns the local-memory bandwidth share of one rank.
func (r *Run) MemBytesPerSecPerRank() float64 {
	return r.Machine.MemBytesPerSec / float64(r.RanksPerNode)
}

// MemBytesPerRank returns the physical memory share of one rank.
func (r *Run) MemBytesPerRank() int64 {
	return r.Machine.MemPerNodeBytes / int64(r.RanksPerNode)
}

// AggregateMemBytes returns the aggregate physical memory of the nodes
// this run occupies — the "fast memory" of the disk<->global level.
func (r *Run) AggregateMemBytes() int64 {
	return int64(r.NodesUsed) * r.Machine.MemPerNodeBytes
}

// ComputeSeconds returns the time one rank needs for the given flops.
func (r *Run) ComputeSeconds(flops int64) float64 {
	return float64(flops) / r.FlopsPerSecPerRank()
}

// RemoteSeconds returns the time for one remote transfer of the given bytes.
func (r *Run) RemoteSeconds(bytes int64) float64 {
	return r.Machine.NetLatencySec + float64(bytes)/r.NetBytesPerSecPerRank()
}

// LocalSeconds returns the time for one local-memory transfer.
func (r *Run) LocalSeconds(bytes int64) float64 {
	return float64(bytes) / r.MemBytesPerSecPerRank()
}

// DiskSeconds returns the time for one file-system transfer. The
// collective file-system bandwidth is shared across all ranks of the
// run, which is what makes spilling so costly at scale.
func (r *Run) DiskSeconds(bytes int64) float64 {
	per := r.Machine.DiskBytesPerSec / float64(r.Ranks)
	return 1e-3 + float64(bytes)/per // ~1 ms per I/O operation
}

// String summarises the run layout.
func (r Run) String() string {
	return fmt.Sprintf("%s ranks=%d (%d/node, %d nodes, %d cores/rank)",
		r.Machine.Name, r.Ranks, r.RanksPerNode, r.NodesUsed, r.CoresPerRank)
}
