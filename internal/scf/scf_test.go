package scf

import (
	"errors"
	"math"
	"testing"

	"fourindex/internal/chem"
)

func converged(t *testing.T, n, nOcc int) Result {
	t.Helper()
	sp := chem.MustSpec(n, 1, 11)
	res, err := RHF(sp, nOcc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("SCF did not converge in %d iterations", res.Iterations)
	}
	return res
}

func TestRHFConverges(t *testing.T) {
	res := converged(t, 10, 3)
	if res.Energy >= 0 {
		t.Errorf("electronic energy = %v, expected negative (bound levels)", res.Energy)
	}
	if len(res.OrbitalEnergies) != 10 || len(res.B) != 100 {
		t.Fatalf("result shapes wrong: %d energies, %d coefficients", len(res.OrbitalEnergies), len(res.B))
	}
	for i := 1; i < len(res.OrbitalEnergies); i++ {
		if res.OrbitalEnergies[i] < res.OrbitalEnergies[i-1] {
			t.Fatal("orbital energies not ascending")
		}
	}
}

// The converged coefficient matrix is orthogonal: B B^T = I (orthonormal
// basis, no overlap matrix).
func TestRHFCoefficientsOrthonormal(t *testing.T) {
	n := 12
	res := converged(t, n, 4)
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			var dot float64
			for i := 0; i < n; i++ {
				dot += res.B[a*n+i] * res.B[b*n+i]
			}
			want := 0.0
			if a == b {
				want = 1
			}
			if math.Abs(dot-want) > 1e-8 {
				t.Fatalf("<%d|%d> = %v, want %v", a, b, dot, want)
			}
		}
	}
}

// At convergence the MO-basis Fock matrix is diagonal: transforming the
// two-index Fock with B must reproduce the orbital energies.
func TestRHFFockDiagonalInMOBasis(t *testing.T) {
	n, nOcc := 10, 3
	sp := chem.MustSpec(n, 1, 11)
	res, err := RHF(sp, nOcc, Options{Tol: 1e-11, MaxIter: 300})
	if err != nil || !res.Converged {
		t.Fatalf("convergence: %v (converged=%v)", err, res.Converged)
	}
	// Rebuild F from the converged density.
	c := make([]float64, n*n)
	for ao := 0; ao < n; ao++ {
		for mo := 0; mo < n; mo++ {
			c[ao*n+mo] = res.B[mo*n+ao]
		}
	}
	d := density(c, n, nOcc)
	f := fock(sp, sp.CoreHamiltonian(), d, 0.02)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			var fab float64
			for p := 0; p < n; p++ {
				for q := 0; q < n; q++ {
					fab += res.B[a*n+p] * f[p*n+q] * res.B[b*n+q]
				}
			}
			if a == b {
				if math.Abs(fab-res.OrbitalEnergies[a]) > 1e-6 {
					t.Fatalf("F_mo[%d,%d] = %v, want eps = %v", a, b, fab, res.OrbitalEnergies[a])
				}
			} else if math.Abs(fab) > 1e-6 {
				t.Fatalf("off-diagonal F_mo[%d,%d] = %v", a, b, fab)
			}
		}
	}
}

// The converged density is an idempotent projector: D^2 = D.
func TestRHFDensityIdempotent(t *testing.T) {
	n, nOcc := 10, 3
	res := converged(t, n, nOcc)
	c := make([]float64, n*n)
	for ao := 0; ao < n; ao++ {
		for mo := 0; mo < n; mo++ {
			c[ao*n+mo] = res.B[mo*n+ao]
		}
	}
	d := density(c, n, nOcc)
	for r := 0; r < n; r++ {
		for s := 0; s < n; s++ {
			var dd float64
			for k := 0; k < n; k++ {
				dd += d[r*n+k] * d[k*n+s]
			}
			if math.Abs(dd-d[r*n+s]) > 1e-9 {
				t.Fatalf("D^2 != D at (%d,%d): %v vs %v", r, s, dd, d[r*n+s])
			}
		}
	}
	// Trace of D equals the occupied count.
	var tr float64
	for r := 0; r < n; r++ {
		tr += d[r*n+r]
	}
	if math.Abs(tr-float64(nOcc)) > 1e-9 {
		t.Errorf("tr D = %v, want %d", tr, nOcc)
	}
}

func TestRHFValidation(t *testing.T) {
	sp := chem.MustSpec(8, 1, 1)
	if _, err := RHF(sp, 0, Options{}); err == nil {
		t.Error("nOcc = 0 should error")
	}
	if _, err := RHF(sp, 8, Options{}); err == nil {
		t.Error("nOcc = n should error")
	}
	sym, _ := chem.NewSpec(8, 2, 1)
	if _, err := RHF(sym, 2, Options{}); err == nil {
		t.Error("spatial symmetry should be rejected")
	}
	var se *chem.SpecError
	if _, err := RHF(chem.Spec{N: 8, S: 1, Seed: 1}, 2, Options{}); !errors.As(err, &se) {
		t.Errorf("a Spec literal gave %v, want a *chem.SpecError", err)
	}
}

func TestRHFDeterministic(t *testing.T) {
	a := converged(t, 8, 2)
	b := converged(t, 8, 2)
	if a.Energy != b.Energy || a.Iterations != b.Iterations {
		t.Error("SCF not deterministic")
	}
}
