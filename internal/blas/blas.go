// Package blas provides the dense linear-algebra kernels the four-index
// transform schedules are built from: a cache-blocked, goroutine-parallel
// double-precision GEMM plus the level-1 kernels (axpy, dot, scal, ger).
//
// Dgemm's inner kernel keeps a 2x4 block of C in registers and streams A
// and B through it, reading either operand or its transpose in place, so
// no call packs a panel or allocates. Its result is bitwise fixed: each C
// element is beta-scaled first (beta 0 stores +0), then takes the terms
// (alpha*a_ik)*b_kj for k ascending, skipping any term whose alpha*a_ik
// is zero. Block sizes, tails and the worker split never change a bit;
// the schedules' C-bit goldens rely on that order.
//
// All matrices are row-major with an explicit leading dimension (row
// stride), following the conventions of CBLAS with CblasRowMajor. Only
// the operations the transform needs are implemented; this is a substrate
// for the simulator, not a general BLAS.
package blas

import (
	"fmt"
	"runtime"
	"sync"
)

// Tuning parameters for the blocked GEMM driver. These are modest values
// chosen for typical L1/L2 sizes; neither correctness nor a single bit of
// C depends on them.
const (
	blockM = 64
	blockN = 256
	blockK = 64

	// parallelThreshold is the m*n*k product above which Dgemm fans
	// out across goroutines.
	parallelThreshold = 1 << 21
)

// Dgemm computes C = alpha*op(A)*op(B) + beta*C where op(X) is X or X^T
// according to transA/transB. Dimensions: op(A) is m x k, op(B) is k x n,
// C is m x n. lda, ldb, ldc are row strides of the stored (untransposed)
// matrices.
func Dgemm(transA, transB bool, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	if m < 0 || n < 0 || k < 0 {
		panic(fmt.Sprintf("blas: negative dimension m=%d n=%d k=%d", m, n, k))
	}
	if m == 0 || n == 0 {
		return
	}
	checkMatrix("A", a, lda, rows(transA, m, k), cols(transA, m, k))
	checkMatrix("B", b, ldb, rows(transB, k, n), cols(transB, k, n))
	checkMatrix("C", c, ldc, m, n)

	if alpha == 0 || k == 0 {
		scaleRows(beta, 0, m, n, c, ldc)
		return
	}

	// Beta-scaling is folded into the same row split as the kernel so C
	// is swept once per worker, not serially up front and again in the
	// accumulation. Extra workers come from the process-wide pool (see
	// pool.go): concurrent Dgemm callers share one goroutine budget
	// instead of each fanning out GOMAXPROCS of their own, and a caller
	// that finds the pool drained runs serially rather than blocking.
	if int64(m)*int64(n)*int64(k) >= parallelThreshold && m >= 2 {
		want := runtime.GOMAXPROCS(0)
		if want > m {
			want = m
		}
		if want > 1 {
			pool := getPool()
			if extra := pool.tryAcquire(want - 1); extra > 0 {
				parallelGemm(extra+1, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
				pool.release(extra)
				return
			}
		}
	}
	scaleRows(beta, 0, m, n, c, ldc)
	gemmBlocked(transA, transB, 0, m, n, k, alpha, a, lda, b, ldb, c, ldc)
}

// scaleRows applies C[i0:i1, :n] *= beta (beta == 0 stores zeros, so
// uninitialised input never propagates NaNs).
func scaleRows(beta float64, i0, i1, n int, c []float64, ldc int) {
	if beta == 1 {
		return
	}
	for i := i0; i < i1; i++ {
		row := c[i*ldc : i*ldc+n]
		if beta == 0 {
			for j := range row {
				row[j] = 0
			}
		} else {
			for j := range row {
				row[j] *= beta
			}
		}
	}
}

func rows(trans bool, r, c int) int {
	if trans {
		return c
	}
	return r
}

func cols(trans bool, r, c int) int {
	if trans {
		return r
	}
	return c
}

func checkMatrix(name string, x []float64, ld, r, c int) {
	if r == 0 || c == 0 {
		return
	}
	if ld < c {
		panic(fmt.Sprintf("blas: %s leading dimension %d < %d", name, ld, c))
	}
	if len(x) < (r-1)*ld+c {
		panic(fmt.Sprintf("blas: %s slice too short: len %d, need %d", name, len(x), (r-1)*ld+c))
	}
}

// parallelGemm splits the row range of C across workers; each worker
// beta-scales its own rows before accumulating, so the scaling sweep
// parallelises with the kernel instead of serialising before it.
func parallelGemm(workers int, transA, transB bool, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	if workers > m {
		workers = m
	}
	var wg sync.WaitGroup
	chunk := (m + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			scaleRows(beta, lo, hi, n, c, ldc)
			gemmBlocked(transA, transB, lo, hi, n, k, alpha, a, lda, b, ldb, c, ldc)
		}(lo, hi)
	}
	wg.Wait()
}

// gemmBlocked accumulates alpha*op(A)*op(B) into C for C-rows [i0, i1).
// It reads A, B and their transposes in place through a row and a
// column stride. The cache blocks only decide when a C element's partial
// sum goes back to memory, never the order of its k terms.
func gemmBlocked(transA, transB bool, i0, i1, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	// Element (i, p) of op(A) is a[i*ars+p*acs]; element (p, j) of
	// op(B) is b[p*brs+j*bcs].
	ars, acs := lda, 1
	if transA {
		ars, acs = 1, lda
	}
	brs, bcs := ldb, 1
	if transB {
		brs, bcs = 1, ldb
	}
	for ib := i0; ib < i1; ib += blockM {
		iMax := min(ib+blockM, i1)
		for kb := 0; kb < k; kb += blockK {
			kc := min(kb+blockK, k) - kb
			for jb := 0; jb < n; jb += blockN {
				jMax := min(jb+blockN, n)
				for i := ib; i < iMax; i += 2 {
					rows := min(2, iMax-i)
					ap := i*ars + kb*acs
					j := jb
					for ; j+4 <= jMax; j += 4 {
						bp, cp := kb*brs+j*bcs, i*ldc+j
						if rows == 2 {
							kernel2x4(kc, alpha, a, ap, ars, acs, b, bp, brs, bcs, c, cp, ldc)
						} else {
							kernel1x4(kc, alpha, a, ap, acs, b, bp, brs, bcs, c, cp)
						}
					}
					for ; j < jMax; j++ {
						for r := 0; r < rows; r++ {
							kernel1x1(kc, alpha, a, ap+r*ars, acs, b, kb*brs+j*bcs, brs, c, (i+r)*ldc+j)
						}
					}
				}
			}
		}
	}
}

// The kernels below add kc terms to a register block of C, term p being
// (alpha*a_ip)*b_pj with a_ip = a[ap+p*acs] and b_pj = b[bp+p*brs+j*bcs]
// for the block's rows and columns. A term whose alpha*a_ip is zero is
// skipped, so a zero never turns a -0 into +0 or an Inf in B into NaN.

// kernel2x4 updates the 2x4 block of C at c[cp], rows ldc apart; row 1
// of A starts ars after row 0.
func kernel2x4(kc int, alpha float64, a []float64, ap, ars, acs int, b []float64, bp, brs, bcs int, c []float64, cp, ldc int) {
	r0 := c[cp : cp+4 : cp+4]
	r1 := c[cp+ldc : cp+ldc+4 : cp+ldc+4]
	c00, c01, c02, c03 := r0[0], r0[1], r0[2], r0[3]
	c10, c11, c12, c13 := r1[0], r1[1], r1[2], r1[3]
	for p := 0; p < kc; p++ {
		a0, a1 := alpha*a[ap], alpha*a[ap+ars]
		b0, b1, b2, b3 := b[bp], b[bp+bcs], b[bp+2*bcs], b[bp+3*bcs]
		if a0 != 0 {
			c00 += a0 * b0
			c01 += a0 * b1
			c02 += a0 * b2
			c03 += a0 * b3
		}
		if a1 != 0 {
			c10 += a1 * b0
			c11 += a1 * b1
			c12 += a1 * b2
			c13 += a1 * b3
		}
		ap += acs
		bp += brs
	}
	r0[0], r0[1], r0[2], r0[3] = c00, c01, c02, c03
	r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
}

// kernel1x4 updates the 1x4 block of C at c[cp].
func kernel1x4(kc int, alpha float64, a []float64, ap, acs int, b []float64, bp, brs, bcs int, c []float64, cp int) {
	r0 := c[cp : cp+4 : cp+4]
	c00, c01, c02, c03 := r0[0], r0[1], r0[2], r0[3]
	for p := 0; p < kc; p++ {
		if a0 := alpha * a[ap]; a0 != 0 {
			c00 += a0 * b[bp]
			c01 += a0 * b[bp+bcs]
			c02 += a0 * b[bp+2*bcs]
			c03 += a0 * b[bp+3*bcs]
		}
		ap += acs
		bp += brs
	}
	r0[0], r0[1], r0[2], r0[3] = c00, c01, c02, c03
}

// kernel1x1 updates the single element c[cp].
func kernel1x1(kc int, alpha float64, a []float64, ap, acs int, b []float64, bp, brs int, c []float64, cp int) {
	c00 := c[cp]
	for p := 0; p < kc; p++ {
		if a0 := alpha * a[ap]; a0 != 0 {
			c00 += a0 * b[bp]
		}
		ap += acs
		bp += brs
	}
	c[cp] = c00
}

// GemmFlops returns the floating-point operation count of a GEMM with the
// given dimensions (2*m*n*k, counting multiply and add separately).
func GemmFlops(m, n, k int) int64 {
	return 2 * int64(m) * int64(n) * int64(k)
}

// Daxpy computes y += alpha * x elementwise.
func Daxpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("blas: Daxpy length mismatch %d vs %d", len(x), len(y)))
	}
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Ddot returns the inner product of x and y.
func Ddot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("blas: Ddot length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Dscal scales x by alpha in place.
func Dscal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Dger performs the rank-1 update A += alpha * x * y^T where A is
// len(x) x len(y) row-major with leading dimension lda.
func Dger(alpha float64, x, y, a []float64, lda int) {
	checkMatrix("A", a, lda, len(x), len(y))
	for i, xv := range x {
		s := alpha * xv
		if s == 0 {
			continue
		}
		row := a[i*lda : i*lda+len(y)]
		for j, yv := range y {
			row[j] += s * yv
		}
	}
}

// Idamax returns the index of the element of x with the largest absolute
// value, or -1 for an empty slice.
func Idamax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best, bi := -1.0, -1
	for i, v := range x {
		if v < 0 {
			v = -v
		}
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}
