package chem_test

import (
	"errors"
	"math"
	"testing"

	"fourindex"
	"fourindex/internal/chem"
)

// The generator's definition, copied from the formulas the chem package
// documents, evaluated here without NewSpec's tables.

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashUnit(key uint64) float64 {
	u := float64(splitmix64(key)>>11) / float64(1<<53)
	return 2*u - 1
}

func formulaIrrep(n, s, p int) int { return p * s / n }

func formulaA(n, s int, seed uint64, i, j, k, l int) float64 {
	if formulaIrrep(n, s, i)^formulaIrrep(n, s, j)^formulaIrrep(n, s, k)^formulaIrrep(n, s, l) != 0 {
		return 0
	}
	if j > i {
		i, j = j, i
	}
	if l > k {
		k, l = l, k
	}
	key := splitmix64(seed ^ uint64(i)<<48 ^ uint64(j)<<32 ^ uint64(k)<<16 ^ uint64(l))
	decay := math.Exp(-0.08*float64(i-j)) * math.Exp(-0.08*float64(k-l))
	return hashUnit(key) * decay
}

func formulaB(n, s int, seed uint64, a, i int) float64 {
	if formulaIrrep(n, s, a) != formulaIrrep(n, s, i) {
		return 0
	}
	v := hashUnit(splitmix64(seed^0xb10c5eed^uint64(a)<<32^uint64(i))) / math.Sqrt(float64(n))
	if a == i {
		v++
	}
	return v
}

// TestIntegralTablesMatchFormula pins every bit that ComputeA, AllowedA,
// Irrep and ComputeB produce from NewSpec's tables to the formula, for
// every index, with and without a WithB override; and checks that the
// transform rejects a Spec that has no tables.
func TestIntegralTablesMatchFormula(t *testing.T) {
	const seed = 0x5eed
	for _, n := range []int{1, 5, 16, 48} {
		for _, s := range []int{1, 2, 4, 8} {
			if s > n {
				continue
			}
			sp := chem.MustSpec(n, s, seed)
			checkA(t, sp)
			for p := 0; p < n; p++ {
				if got, want := sp.Irrep(p), formulaIrrep(n, s, p); got != want {
					t.Fatalf("n=%d s=%d: Irrep(%d) = %d, want %d", n, s, p, got, want)
				}
			}
			for a := 0; a < n; a++ {
				for i := 0; i < n; i++ {
					if got, want := sp.ComputeB(a, i), formulaB(n, s, seed, a, i); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("n=%d s=%d: ComputeB(%d,%d) = %v, want %v", n, s, a, i, got, want)
					}
				}
			}
			if s != 1 {
				continue
			}
			// WithB replaces B and leaves A to the tables it copies.
			b := make([]float64, n*n)
			for x := range b {
				b[x] = float64(x) + 0.5
			}
			ov, err := sp.WithB(b)
			if err != nil {
				t.Fatal(err)
			}
			checkA(t, ov)
			for a := 0; a < n; a++ {
				for i := 0; i < n; i++ {
					if got := ov.ComputeB(a, i); math.Float64bits(got) != math.Float64bits(b[a*n+i]) {
						t.Fatalf("n=%d WithB: ComputeB(%d,%d) = %v, want %v", n, a, i, got, b[a*n+i])
					}
				}
			}
		}
	}

	t.Run("spec without tables", func(t *testing.T) {
		mutated := chem.MustSpec(8, 1, seed)
		mutated.N = 9
		for _, tc := range []struct {
			name string
			sp   chem.Spec
		}{
			{"literal", chem.Spec{N: 8, S: 1, Seed: seed}},
			{"zero", chem.Spec{}},
			{"mutated", mutated},
		} {
			_, err := fourindex.Transform(fourindex.Unfused, fourindex.Options{Spec: tc.sp, Procs: 2, Mode: fourindex.ModeExecute})
			var se *chem.SpecError
			if !errors.As(err, &se) {
				t.Errorf("%s spec: Transform error = %v, want a *chem.SpecError", tc.name, err)
			}
		}
	})
}

// checkA compares ComputeA and AllowedA with the formula at every index.
func checkA(t *testing.T, sp chem.Spec) {
	t.Helper()
	n, s := sp.N, sp.S
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				for l := 0; l < n; l++ {
					want := formulaA(n, s, sp.Seed, i, j, k, l)
					if got := sp.ComputeA(i, j, k, l); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("n=%d s=%d: ComputeA(%d,%d,%d,%d) = %v, want %v", n, s, i, j, k, l, got, want)
					}
					allowed := formulaIrrep(n, s, i)^formulaIrrep(n, s, j)^formulaIrrep(n, s, k)^formulaIrrep(n, s, l) == 0
					if sp.AllowedA(i, j, k, l) != allowed {
						t.Fatalf("n=%d s=%d: AllowedA(%d,%d,%d,%d) != %v", n, s, i, j, k, l, allowed)
					}
				}
			}
		}
	}
}
