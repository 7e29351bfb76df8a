// Package scf implements a closed-shell restricted Hartree-Fock solver
// over the synthetic integral engine — the upstream producer of the
// four-index transform's inputs. The paper's transformation matrix B is
// "a two-dimensional transformation matrix" taking atomic orbitals to
// molecular orbitals; in real suites it comes from exactly this
// self-consistent-field loop.
//
// The synthetic basis is orthonormal by construction (overlap S = I), so
// no Löwdin orthogonalisation is needed: iterate
//
//	F = Hcore + lambda * G(D),   F C = C eps,   D = C_occ C_occ^T
//
// to self-consistency, with DIIS (Pulay commutator mixing) accelerating
// the iteration. lambda is the two-electron coupling strength of the
// synthetic model: the hash-based integrals carry random O(1) signs
// (unlike real electron-repulsion integrals, which obey Cauchy-Schwarz
// positivity), so a weak coupling keeps the mean field in the convergent
// closed-shell regime; with DIIS the iteration then converges
// quadratically in a handful of steps.
//
// The converged MO coefficients are returned in the B[mo, ao] layout the
// transform consumes.
package scf

import (
	"fmt"
	"math"

	"fourindex/internal/chem"
	"fourindex/internal/linalg"
)

// Options tunes the SCF iteration.
type Options struct {
	MaxIter int     // default 200
	Tol     float64 // density convergence threshold, default 1e-9
	// Coupling is the two-electron interaction strength lambda
	// (default 0.02; see withDefaults for why it is weak).
	Coupling float64
	// DIISDepth is the Pulay history length (default 6; 1 disables).
	DIISDepth int
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 200
	}
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	if o.Coupling <= 0 {
		// The hash-based synthetic integrals carry random O(1) signs
		// and do not satisfy the Cauchy-Schwarz structure of real
		// electron-repulsion integrals; couplings much beyond ~0.03
		// push the mean field into a genuinely non-convergent regime.
		o.Coupling = 0.02
	}
	if o.DIISDepth <= 0 {
		o.DIISDepth = 6
	}
	return o
}

// Result is a converged (or abandoned) SCF state.
type Result struct {
	// Energy is the electronic energy sum_rs D_sr (H_rs + F_rs).
	Energy float64
	// B holds the MO coefficients in the transform's layout:
	// B[mo*n + ao], i.e. row a is molecular orbital a.
	B []float64
	// OrbitalEnergies are the converged eigenvalues, ascending.
	OrbitalEnergies []float64
	// Iterations actually performed.
	Iterations int
	// Converged reports whether the DIIS error fell below Tol.
	Converged bool
}

// RHF runs the self-consistent-field loop for nOcc doubly occupied
// orbitals on the spec's synthetic integrals. The spec must carry no
// spatial symmetry (S == 1): symmetry-adapted SCF is out of scope.
func RHF(sp chem.Spec, nOcc int, opt Options) (Result, error) {
	if err := sp.Validate(); err != nil {
		return Result{}, fmt.Errorf("scf: %w", err)
	}
	n := sp.N
	if sp.S != 1 {
		return Result{}, fmt.Errorf("scf: spatial symmetry order %d not supported (use s = 1)", sp.S)
	}
	if nOcc <= 0 || nOcc >= n {
		return Result{}, fmt.Errorf("scf: occupied count %d out of (0, %d)", nOcc, n)
	}
	opt = opt.withDefaults()

	h := sp.CoreHamiltonian()

	// Initial guess: the core Hamiltonian's own eigenvectors.
	_, c0, err := linalg.EigSym(h, n)
	if err != nil {
		return Result{}, fmt.Errorf("scf: core guess: %w", err)
	}
	d := density(c0, n, nOcc)

	diis := newDIIS(n, opt.DIISDepth)
	var res Result
	for iter := 1; iter <= opt.MaxIter; iter++ {
		f := fock(sp, h, d, opt.Coupling)

		// DIIS error: the commutator [F, D] (S = I), zero at
		// self-consistency.
		e := commutator(f, d, n)
		errNorm := maxAbs(e)
		fUse, derr := diis.mix(f, e)
		if derr != nil {
			fUse = f // fall back to the raw Fock on a singular system
		}

		vals, c, err := linalg.EigSym(fUse, n)
		if err != nil {
			return Result{}, fmt.Errorf("scf: iteration %d: %w", iter, err)
		}
		d = density(c, n, nOcc)

		res.Iterations = iter
		res.OrbitalEnergies = vals
		res.Energy = electronicEnergy(h, f, d, n)
		res.B = make([]float64, n*n)
		for ao := 0; ao < n; ao++ {
			for mo := 0; mo < n; mo++ {
				res.B[mo*n+ao] = c[ao*n+mo]
			}
		}
		if errNorm < opt.Tol {
			res.Converged = true
			return res, nil
		}
	}
	return res, nil
}

// density builds D = C_occ C_occ^T from eigenvector columns.
func density(c []float64, n, nOcc int) []float64 {
	d := make([]float64, n*n)
	for r := 0; r < n; r++ {
		for s := 0; s < n; s++ {
			var v float64
			for k := 0; k < nOcc; k++ {
				v += c[r*n+k] * c[s*n+k]
			}
			d[r*n+s] = v
		}
	}
	return d
}

// fock builds F = H + lambda * sum_rs D_rs [2 (pq|rs) - (pr|qs)].
func fock(sp chem.Spec, h, d []float64, lambda float64) []float64 {
	n := sp.N
	f := make([]float64, n*n)
	copy(f, h)
	for p := 0; p < n; p++ {
		for q := p; q < n; q++ {
			var g float64
			for r := 0; r < n; r++ {
				for s := 0; s < n; s++ {
					drs := d[r*n+s]
					if drs == 0 {
						continue
					}
					g += drs * (2*sp.ComputeA(p, q, r, s) - sp.ComputeA(p, r, q, s))
				}
			}
			f[p*n+q] += lambda * g
			if p != q {
				f[q*n+p] += lambda * g
			}
		}
	}
	return f
}

// electronicEnergy is sum_rs D_sr (H_rs + F_rs).
func electronicEnergy(h, f, d []float64, n int) float64 {
	var e float64
	for r := 0; r < n; r++ {
		for s := 0; s < n; s++ {
			e += d[s*n+r] * (h[r*n+s] + f[r*n+s])
		}
	}
	return e
}

// commutator returns F D - D F.
func commutator(f, d []float64, n int) []float64 {
	out := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var fd, df float64
			for k := 0; k < n; k++ {
				fd += f[i*n+k] * d[k*n+j]
				df += d[i*n+k] * f[k*n+j]
			}
			out[i*n+j] = fd - df
		}
	}
	return out
}

func maxAbs(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// diisState is Pulay's direct inversion in the iterative subspace: keep
// the last few (Fock, error) pairs and extrapolate the Fock matrix whose
// combined error is minimal.
type diisState struct {
	n, depth int
	focks    [][]float64
	errs     [][]float64
}

func newDIIS(n, depth int) *diisState { return &diisState{n: n, depth: depth} }

func (ds *diisState) mix(f, e []float64) ([]float64, error) {
	fc := make([]float64, len(f))
	copy(fc, f)
	ec := make([]float64, len(e))
	copy(ec, e)
	ds.focks = append(ds.focks, fc)
	ds.errs = append(ds.errs, ec)
	if len(ds.focks) > ds.depth {
		ds.focks = ds.focks[1:]
		ds.errs = ds.errs[1:]
	}
	m := len(ds.focks)
	if m < 2 {
		return f, nil
	}
	// Lagrangian system: [B 1; 1 0] [c; l] = [0; 1] with
	// B_ij = <e_i, e_j>.
	dim := m + 1
	a := make([]float64, dim*dim)
	b := make([]float64, dim)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			var dot float64
			for k := range ds.errs[i] {
				dot += ds.errs[i][k] * ds.errs[j][k]
			}
			a[i*dim+j] = dot
		}
		a[i*dim+m] = 1
		a[m*dim+i] = 1
	}
	b[m] = 1
	coef, err := linalg.SolveLinear(a, b, dim)
	if err != nil {
		return nil, err
	}
	out := make([]float64, ds.n*ds.n)
	for i := 0; i < m; i++ {
		ci := coef[i]
		for k := range out {
			out[k] += ci * ds.focks[i][k]
		}
	}
	return out, nil
}
