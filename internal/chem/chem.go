// Package chem supplies the quantum-chemistry inputs of the four-index
// transform: the benchmark molecule catalog of the paper's evaluation
// (Section 8), a deterministic synthetic integral generator standing in
// for NWChem's atomic-orbital integral code (the paper's ComputeA), and a
// synthetic molecular-orbital coefficient matrix (ComputeB).
//
// Real integrals require a basis-set library and an SCF solver; the data
// movement behaviour of the transform, which is what the paper analyses,
// depends only on tensor sizes, permutation symmetry, spatial symmetry
// and on-the-fly producibility. The generator reproduces exactly those
// properties:
//
//   - A[i,j,k,l] is symmetric under i<->j and k<->l,
//   - values decay with |i-j| and |k-l| like two-electron integrals,
//   - every element is computable independently ("produced on the fly",
//     Section 7.1), and
//   - with a spatial-symmetry order s > 1, orbitals carry irrep labels
//     of an abelian group (Z2^k) and A (hence C) vanishes unless the
//     product of the four irreps is totally symmetric, giving the 1/s
//     size reduction of the output tensor quoted in Table 1.
//
// The formulas in ComputeA and ComputeB define the values. NewSpec
// precomputes two O(N) tables from them, each orbital's irrep and the
// decay factor exp(-0.08 d) for every index distance d, and the
// generators read those tables instead of dividing and calling math.Exp
// per element. A table entry is the double the formula computes, so the
// tables change only how fast a value is produced, never its bits.
package chem

import (
	"fmt"
	"math"
	"math/bits"
)

// Molecule describes a benchmark system from the paper's evaluation.
type Molecule struct {
	Name     string
	Orbitals int // number of orbitals = extent of every tensor dimension
	Class    string
}

// The five benchmark molecules of Section 8, with the paper's orbital
// counts: 368 (small), 580 (medium), 698 (large), 1023 and 1194 (very
// large).
var Catalog = []Molecule{
	{Name: "Hyperpolar", Orbitals: 368, Class: "small"},
	{Name: "C60H20", Orbitals: 580, Class: "medium"},
	{Name: "Uracil", Orbitals: 698, Class: "large"},
	{Name: "C40H56", Orbitals: 1023, Class: "verylarge"},
	{Name: "Shell-Mixed", Orbitals: 1194, Class: "verylarge"},
}

// ByName looks up a catalog molecule (case-sensitive).
func ByName(name string) (Molecule, error) {
	for _, m := range Catalog {
		if m.Name == name {
			return m, nil
		}
	}
	return Molecule{}, fmt.Errorf("chem: unknown molecule %q", name)
}

// UnfusedMemoryBytes returns the minimum aggregate memory, in bytes, an
// unfused transform needs: |O1| + |O2| = 3n^4/4 words of 8 bytes
// (Section 2.2). For the catalog this reproduces the paper's figures of
// 110 GB, 678 GB, 1.4 TB, 6.5 TB and 12.1 TB.
func (m Molecule) UnfusedMemoryBytes() int64 {
	n := int64(m.Orbitals)
	return 3 * n * n * n * n / 4 * 8
}

// Spec is a synthetic electronic-structure specification: extent,
// spatial-symmetry order, and a seed making all values reproducible.
// Only NewSpec makes a usable Spec: it builds the tables the generators
// read. A Spec literal or the zero value has none, and neither does a
// Spec whose N or S was changed after NewSpec; Validate reports both,
// and the transform rejects them.
type Spec struct {
	N    int    // number of orbitals
	S    int    // spatial symmetry order (power of two; 1 = none)
	Seed uint64 // generator seed

	// tab holds NewSpec's precomputed tables and WithB's override,
	// shared read-only by every copy of the Spec.
	tab *tables
}

// tables holds what NewSpec precomputes from N and S, plus the
// coefficient matrix WithB installs.
type tables struct {
	s     int       // the S the irrep labels were computed for
	irrep []int     // irrep[p] = p*S/N, len N
	decay []float64 // decay[d] = math.Exp(-0.08*float64(d)), d in [0, N)

	// b, when non-nil, replaces the synthetic coefficient matrix:
	// ComputeB(a, i) returns b[a*N+i]. Installed by WithB, typically
	// with converged SCF coefficients.
	b []float64
}

// SpecError reports a Spec whose generator tables are missing or do not
// belong to its N and S: a Spec that NewSpec did not make (a literal or
// the zero value), or one whose N or S changed after NewSpec made it.
type SpecError struct {
	N, S   int
	Reason string
}

// Error names the spec and what is wrong with it.
func (e *SpecError) Error() string {
	return fmt.Sprintf("chem: spec (N=%d, S=%d) %s", e.N, e.S, e.Reason)
}

// NewSpec validates and returns a Spec. S must be a power of two >= 1
// (abelian Z2^k point groups: C1, C2/Ci/Cs, C2v/C2h/D2, D2h have orders
// 1, 2, 4, 8).
func NewSpec(n, s int, seed uint64) (Spec, error) {
	if n <= 0 {
		return Spec{}, fmt.Errorf("chem: non-positive orbital count %d", n)
	}
	if s < 1 || bits.OnesCount(uint(s)) != 1 {
		return Spec{}, fmt.Errorf("chem: spatial symmetry order %d must be a power of two >= 1", s)
	}
	t := &tables{s: s, irrep: make([]int, n), decay: make([]float64, n)}
	for p := 0; p < n; p++ {
		t.irrep[p] = p * s / n
		t.decay[p] = math.Exp(-0.08 * float64(p))
	}
	return Spec{N: n, S: s, Seed: seed, tab: t}, nil
}

// MustSpec is NewSpec for known-good arguments; it panics on error.
func MustSpec(n, s int, seed uint64) Spec {
	sp, err := NewSpec(n, s, seed)
	if err != nil {
		panic(err)
	}
	return sp
}

// Validate returns a *SpecError unless NewSpec made sp and its N and S
// are still the ones NewSpec built the tables for.
func (sp Spec) Validate() error {
	switch {
	case sp.tab == nil:
		return &SpecError{N: sp.N, S: sp.S, Reason: "was not made by NewSpec"}
	case len(sp.tab.irrep) != sp.N || sp.tab.s != sp.S:
		return &SpecError{N: sp.N, S: sp.S, Reason: "changed N or S after NewSpec"}
	}
	return nil
}

// mustTables returns sp's generator tables. A Spec without them reaching a
// generator is a caller bug: entry points that take a Spec from outside
// call Validate first.
func (sp Spec) mustTables() *tables {
	if sp.tab == nil {
		panic("chem: Spec was not made by NewSpec")
	}
	return sp.tab
}

// Irrep returns the irreducible-representation label of orbital p, in
// [0, S): p*S/N. Orbitals are blocked by irrep — the first ~N/S orbitals
// belong to irrep 0, the next block to irrep 1, and so on — which is how
// symmetry-adapted codes order their orbitals and what makes the spatial
// block sparsity of the output tensor visible at data-tile granularity.
func (sp Spec) Irrep(p int) int { return sp.mustTables().irrep[p] }

// AllowedA reports whether A[i,j,k,l] may be nonzero under the spatial
// symmetry: the XOR (group product in Z2^k) of the four irreps must be
// the totally symmetric irrep 0.
func (sp Spec) AllowedA(i, j, k, l int) bool {
	ir := sp.mustTables().irrep
	return ir[i]^ir[j]^ir[k]^ir[l] == 0
}

// splitmix64 is a strong 64-bit mixer used to derive reproducible
// pseudo-random values from index tuples.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashUnit maps a key to a deterministic float64 in (-1, 1).
func hashUnit(key uint64) float64 {
	h := splitmix64(key)
	// 53 mantissa bits -> [0,1), then shift to (-1,1).
	u := float64(h>>11) / float64(1<<53)
	return 2*u - 1
}

// ComputeA returns the synthetic atomic-orbital integral A[i,j,k,l].
// It is exactly symmetric under i<->j and k<->l (indices are
// canonicalised before hashing), decays with charge-distribution
// separation like Schwarz-bounded two-electron integrals, and vanishes
// when spatial symmetry forbids the element. With i >= j and k >= l
// after canonicalisation, the definition is
//
//	hashUnit(splitmix64(Seed ^ i<<48 ^ j<<32 ^ k<<16 ^ l)) *
//	    (math.Exp(-0.08*(i-j)) * math.Exp(-0.08*(k-l)))
//
// where both exponentials are read from NewSpec's decay table.
func (sp Spec) ComputeA(i, j, k, l int) float64 {
	if i < 0 || j < 0 || k < 0 || l < 0 || i >= sp.N || j >= sp.N || k >= sp.N || l >= sp.N {
		panic(fmt.Sprintf("chem: ComputeA index (%d,%d,%d,%d) out of range [0,%d)", i, j, k, l, sp.N))
	}
	t := sp.mustTables()
	if t.irrep[i]^t.irrep[j]^t.irrep[k]^t.irrep[l] != 0 {
		return 0
	}
	if j > i {
		i, j = j, i
	}
	if l > k {
		k, l = l, k
	}
	key := sp.Seed
	key = splitmix64(key ^ uint64(i)<<48 ^ uint64(j)<<32 ^ uint64(k)<<16 ^ uint64(l))
	decay := t.decay[i-j] * t.decay[k-l]
	return hashUnit(key) * decay
}

// ComputeB returns the synthetic molecular-orbital coefficient
// B[a, i] (row: MO index a, column: AO index i). When S > 1 the matrix
// is symmetry-adapted: B[a,i] = 0 unless orbital a and basis function i
// belong to the same irrep, which is what makes the transformed tensor C
// inherit the block sparsity of Table 1.
func (sp Spec) ComputeB(a, i int) float64 {
	if a < 0 || i < 0 || a >= sp.N || i >= sp.N {
		panic(fmt.Sprintf("chem: ComputeB index (%d,%d) out of range [0,%d)", a, i, sp.N))
	}
	t := sp.mustTables()
	if t.b != nil {
		return t.b[a*sp.N+i]
	}
	if t.irrep[a] != t.irrep[i] {
		return 0
	}
	key := splitmix64(sp.Seed ^ 0xb10c5eed ^ uint64(a)<<32 ^ uint64(i))
	v := hashUnit(key) / math.Sqrt(float64(sp.N))
	if a == i {
		v += 1 // diagonally dominant, like near-orthogonal MO coefficients
	}
	return v
}

// WithB returns a copy of the spec whose coefficient matrix is replaced
// by b (row-major, B[mo*N + ao]) — typically the converged coefficients
// of an SCF calculation. The override is incompatible with spatial
// symmetry (the synthetic irrep adaptation no longer applies).
func (sp Spec) WithB(b []float64) (Spec, error) {
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	if sp.S != 1 {
		return Spec{}, fmt.Errorf("chem: WithB requires spatial symmetry order 1, have %d", sp.S)
	}
	if len(b) != sp.N*sp.N {
		return Spec{}, fmt.Errorf("chem: WithB matrix has %d elements, want %d", len(b), sp.N*sp.N)
	}
	t := *sp.tab
	t.b = make([]float64, len(b))
	copy(t.b, b)
	sp.tab = &t
	return sp, nil
}

// CoreHamiltonian returns the synthetic one-electron Hamiltonian: a
// symmetric N x N matrix with bound (negative) diagonal levels rising
// toward zero and exponentially decaying off-diagonal couplings — the
// Hcore an SCF iteration starts from.
func (sp Spec) CoreHamiltonian() []float64 {
	n := sp.N
	h := make([]float64, n*n)
	for i := 0; i < n; i++ {
		h[i*n+i] = -4 + 3*float64(i)/float64(n) // -4 .. -1
		for j := 0; j < i; j++ {
			v := 0.2 * hashUnit(splitmix64(sp.Seed^0xc04e^uint64(i)<<20^uint64(j))) *
				math.Exp(-0.3*float64(i-j))
			h[i*n+j], h[j*n+i] = v, v
		}
	}
	return h
}

// BMatrix materialises the full N x N coefficient matrix row-major.
func (sp Spec) BMatrix() []float64 {
	b := make([]float64, sp.N*sp.N)
	for a := 0; a < sp.N; a++ {
		for i := 0; i < sp.N; i++ {
			b[a*sp.N+i] = sp.ComputeB(a, i)
		}
	}
	return b
}

// OrbitalEnergy returns a synthetic canonical orbital energy for orbital
// p: monotonically increasing, negative for low orbitals (occupied-like)
// and positive above. Used by the MP2 example.
func (sp Spec) OrbitalEnergy(p int) float64 {
	if p < 0 || p >= sp.N {
		panic(fmt.Sprintf("chem: orbital %d out of range [0,%d)", p, sp.N))
	}
	frac := float64(p)/float64(sp.N) - 0.3 // 30% "occupied"
	return 4*frac + 0.5*hashUnit(splitmix64(sp.Seed^0xe4e26))*0.01
}

// AllowedCFraction returns the exact fraction of packed C elements that
// can be nonzero under the spatial symmetry, by counting irrep-allowed
// (ab, cd) combinations. For S = 1 it returns 1; for S > 1 it approaches
// 1/S for large N.
func (sp Spec) AllowedCFraction() float64 {
	if sp.S == 1 {
		return 1
	}
	// Count canonical pairs per pair-irrep (XOR of the two labels).
	counts := make([]int64, sp.S)
	for a := 0; a < sp.N; a++ {
		for b := 0; b <= a; b++ {
			counts[sp.Irrep(a)^sp.Irrep(b)]++
		}
	}
	var allowed, total int64
	for x := 0; x < sp.S; x++ {
		// (ab) with pair-irrep x combines with (cd) of pair-irrep x.
		allowed += counts[x] * counts[x]
	}
	var m int64
	for _, c := range counts {
		m += c
	}
	total = m * m
	return float64(allowed) / float64(total)
}
