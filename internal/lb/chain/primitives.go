package chain

import "math"

// The published matmul I/O lower bounds, as pure functions of the
// contraction shape. This is their one implementation in the module.
// They perform no validation: the engine entry points validate S
// before evaluating them, and other callers check S themselves (with
// CheckCapacity, or a CLI's flag validation).

// Dongarra returns the Dongarra et al. constant-factor I/O lower bound
// for an (ni x nj) by (nj x nk) matrix product with fast memory S:
// 1.73 * ni*nj*nk / sqrt(S).
func Dongarra(ni, nj, nk, s int64) float64 {
	return 1.73 * float64(ni) * float64(nj) * float64(nk) / math.Sqrt(float64(s))
}

// Irony returns the Irony/Toledo/Tiskin constant-factor bound:
// ni*nj*nk / (2*sqrt(2*S)).
func Irony(ni, nj, nk, s int64) float64 {
	return float64(ni) * float64(nj) * float64(nk) / (2 * math.Sqrt(2*float64(s)))
}

// HongKung returns the Hong & Kung asymptotic bound for an n x n square
// product with unit constant: n^3 / sqrt(S).
func HongKung(n, s int64) float64 {
	return float64(n) * float64(n) * float64(n) / math.Sqrt(float64(s))
}

// FusionLemma is Lemma 4.2: given I/O lower bounds for producer C1 and
// consumer C2 and the size of the intermediate flowing between them, any
// fused schedule has I/O at least lb1 + lb2 - 2*|mid|.
func FusionLemma(lb1, lb2 float64, mid int64) float64 {
	return lb1 + lb2 - 2*float64(mid)
}

// MatmulOpLB returns the I/O lower bound of one contraction of shape
// (rows x red) by (red x prod) with input and output tensor sizes in and
// out: max(Dongarra(rows, red, prod, S), in + out). This is the
// generalized form of the paper's Section 5.1 per-contraction bound.
func MatmulOpLB(rows, red, prod, s, in, out int64) float64 {
	d := Dongarra(rows, red, prod, s)
	io := float64(in + out)
	if d > io {
		return d
	}
	return io
}
