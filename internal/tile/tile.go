// Package tile provides one-dimensional tilings of index ranges and
// ownership (distribution) policies for mapping tiles to processes.
//
// NWChem blocks every tensor dimension into data-tiles and distributes
// the linearised tiles with Global Arrays (Section 2.1 of the paper).
// The same machinery is reused here: a Grid splits [0, n) into tiles of a
// chosen width, and a Dist assigns each linearised tile to an owning
// process. Distribution policy is one of the ablation knobs called out in
// DESIGN.md (round-robin vs block vs block-cyclic).
package tile

import "fmt"

// Grid is a tiling of the index range [0, N) into tiles of width T; the
// final tile may be narrower when T does not divide N.
type Grid struct {
	N int // extent of the index range
	T int // tile width
}

// NewGrid returns a grid over [0, n) with tile width t, clamped to n.
func NewGrid(n, t int) Grid {
	if n < 0 {
		panic(fmt.Sprintf("tile: negative extent %d", n))
	}
	if t <= 0 {
		panic(fmt.Sprintf("tile: non-positive tile width %d", t))
	}
	if t > n && n > 0 {
		t = n
	}
	return Grid{N: n, T: t}
}

// NumTiles returns the number of tiles.
func (g Grid) NumTiles() int {
	if g.N == 0 {
		return 0
	}
	return (g.N + g.T - 1) / g.T
}

// Bounds returns the half-open index range [lo, hi) covered by tile t.
func (g Grid) Bounds(t int) (lo, hi int) {
	// t < NumTiles() exactly when tile t starts inside [0, N), which
	// checks the range without NumTiles' division.
	lo = t * g.T
	if t < 0 || lo >= g.N {
		panic(fmt.Sprintf("tile: tile %d out of range [0,%d)", t, g.NumTiles()))
	}
	return lo, min(lo+g.T, g.N)
}

// Width returns the number of indices in tile t.
func (g Grid) Width(t int) int {
	lo, hi := g.Bounds(t)
	return hi - lo
}

// TileOf returns the tile containing index i.
func (g Grid) TileOf(i int) int {
	if i < 0 || i >= g.N {
		panic(fmt.Sprintf("tile: index %d out of range [0,%d)", i, g.N))
	}
	return i / g.T
}

// Policy selects how linearised tiles map to owning processes.
type Policy int

const (
	// RoundRobin assigns tile t to process t mod P. This is the
	// default: consecutive tiles land on different processes, which
	// balances triangular (a >= b) iteration spaces well.
	RoundRobin Policy = iota
	// Block assigns contiguous runs of tiles to each process.
	Block
	// BlockCyclic assigns blocks of blockSize tiles round-robin.
	BlockCyclic
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case Block:
		return "block"
	case BlockCyclic:
		return "block-cyclic"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Dist maps linearised tile IDs in [0, NumTiles) to owners in [0, Procs).
type Dist struct {
	Procs     int
	NumTiles  int
	Pol       Policy
	BlockSize int // used by BlockCyclic; defaults to 1
}

// NewDist builds a distribution of numTiles tiles over procs processes.
func NewDist(numTiles, procs int, pol Policy, blockSize int) Dist {
	if procs <= 0 {
		panic(fmt.Sprintf("tile: non-positive process count %d", procs))
	}
	if numTiles < 0 {
		panic(fmt.Sprintf("tile: negative tile count %d", numTiles))
	}
	if blockSize <= 0 {
		blockSize = 1
	}
	return Dist{Procs: procs, NumTiles: numTiles, Pol: pol, BlockSize: blockSize}
}

// Owner returns the process owning tile t.
func (d Dist) Owner(t int) int {
	if t < 0 || t >= d.NumTiles {
		panic(fmt.Sprintf("tile: tile %d out of range [0,%d)", t, d.NumTiles))
	}
	switch d.Pol {
	case RoundRobin:
		return t % d.Procs
	case Block:
		per := (d.NumTiles + d.Procs - 1) / d.Procs
		return t / per
	case BlockCyclic:
		return (t / d.BlockSize) % d.Procs
	default:
		panic(fmt.Sprintf("tile: unknown policy %v", d.Pol))
	}
}

// Owned returns the tiles process p owns as a strided run of blocks:
// p owns [b, min(b+size, NumTiles)) for b = first, first+stride, ...
// while b < NumTiles, which lists them in increasing order without
// visiting any other process's tiles. It is the inverse of Owner.
func (d Dist) Owned(p int) (first, size, stride int) {
	if p < 0 || p >= d.Procs {
		panic(fmt.Sprintf("tile: process %d out of range [0,%d)", p, d.Procs))
	}
	switch d.Pol {
	case RoundRobin:
		return p, 1, d.Procs
	case Block:
		// One block: the stride Procs*per reaches past the last tile.
		per := (d.NumTiles + d.Procs - 1) / d.Procs
		return p * per, per, d.Procs * per
	case BlockCyclic:
		return p * d.BlockSize, d.BlockSize, d.Procs * d.BlockSize
	default:
		panic(fmt.Sprintf("tile: unknown policy %v", d.Pol))
	}
}

// Counts returns how many tiles each process owns.
func (d Dist) Counts() []int {
	c := make([]int, d.Procs)
	for t := 0; t < d.NumTiles; t++ {
		c[d.Owner(t)]++
	}
	return c
}

// Imbalance returns max/mean ownership counts, a load-imbalance measure
// (1.0 is perfectly balanced). Returns 1 for empty distributions.
func (d Dist) Imbalance() float64 {
	if d.NumTiles == 0 {
		return 1
	}
	counts := d.Counts()
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	mean := float64(d.NumTiles) / float64(d.Procs)
	return float64(maxC) / mean
}
