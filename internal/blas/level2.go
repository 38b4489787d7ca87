package blas

import "repro/internal/mat"

// Dgemv computes y ← αAx + βy (trans == false) or y ← αAᵀx + βy
// (trans == true). Dimensions are checked against the operation
// actually performed.
func Dgemv(trans bool, alpha float64, a *mat.Matrix, x []float64, beta float64, y []float64) {
	m, n := a.Rows, a.Cols
	if trans {
		if len(x) != m || len(y) != n {
			panic("blas: Dgemv(T) dimension mismatch")
		}
	} else {
		if len(x) != n || len(y) != m {
			panic("blas: Dgemv(N) dimension mismatch")
		}
	}
	if beta == 0 {
		for i := range y {
			y[i] = 0
		}
	} else if beta != 1 {
		Dscal(beta, y)
	}
	if alpha == 0 {
		return
	}
	if !trans {
		// Row-major, no-transpose: each y[i] is a dot product with a
		// contiguous row — the cache-friendly orientation.
		for i := 0; i < m; i++ {
			y[i] += alpha * Ddot(a.Row(i), x)
		}
		return
	}
	// Transpose: accumulate scaled rows into y (axpy per row), which
	// again touches contiguous memory.
	for i := 0; i < m; i++ {
		Daxpy(alpha*x[i], a.Row(i), y)
	}
}

// DgemvRows computes y_p ← αA·x_p + βy_p for every row p in [lo, hi)
// of x and y: the per-site conditional-vector apply of the paper's
// §III-B over a block of site patterns. Rows are taken two at a time
// so each row of A is loaded once per pair, but every dot product keeps
// Ddot's accumulation order (four strided partial sums combined left
// to right, then the tail), so each output row is bit-identical to
// Dgemv(false, α, A, x_p, β, y_p).
func DgemvRows(alpha float64, a, x *mat.Matrix, beta float64, y *mat.Matrix, lo, hi int) {
	if x.Cols != a.Cols || y.Cols != a.Rows || lo < 0 || hi < lo || hi > x.Rows || hi > y.Rows {
		panic("blas: DgemvRows dimension mismatch")
	}
	p := lo
	for ; p+2 <= hi; p += 2 {
		gemv2(alpha, a, x.Row(p), x.Row(p+1), beta, y.Row(p), y.Row(p+1))
	}
	if p < hi {
		Dgemv(false, alpha, a, x.Row(p), beta, y.Row(p))
	}
}

// gemv2 is DgemvRows' two-row step: y0 ← αA·x0 + βy0 and
// y1 ← αA·x1 + βy1 with Dgemv's β handling and, per output element,
// Ddot's exact operation sequence.
func gemv2(alpha float64, a *mat.Matrix, x0, x1 []float64, beta float64, y0, y1 []float64) {
	for _, y := range [2][]float64{y0, y1} {
		if beta == 0 {
			for i := range y {
				y[i] = 0
			}
		} else if beta != 1 {
			Dscal(beta, y)
		}
	}
	if alpha == 0 {
		return
	}
	n := len(x0)
	x1 = x1[:n]
	y1 = y1[:len(y0)]
	for i := range y0 {
		row := a.Data[i*a.Stride : i*a.Stride+n]
		var s0, s1, s2, s3, t0, t1, t2, t3 float64
		j := 0
		for ; j+4 <= n; j += 4 {
			r := row[j : j+4 : j+4]
			u := x0[j : j+4 : j+4]
			w := x1[j : j+4 : j+4]
			s0 += r[0] * u[0]
			t0 += r[0] * w[0]
			s1 += r[1] * u[1]
			t1 += r[1] * w[1]
			s2 += r[2] * u[2]
			t2 += r[2] * w[2]
			s3 += r[3] * u[3]
			t3 += r[3] * w[3]
		}
		s := s0 + s1 + s2 + s3
		t := t0 + t1 + t2 + t3
		for ; j < n; j++ {
			s += row[j] * x0[j]
			t += row[j] * x1[j]
		}
		y0[i] += alpha * s
		y1[i] += alpha * t
	}
}

// Dsymv computes y ← αAx + βy for a symmetric matrix A of which only
// the upper triangle (including the diagonal) is referenced. Reading
// half the matrix halves the memory traffic relative to Dgemv — the
// advantage the paper's Eq. 12 formulation exploits for the
// conditional probability vectors.
func Dsymv(alpha float64, a *mat.Matrix, x []float64, beta float64, y []float64) {
	n := a.Rows
	if a.Cols != n || len(x) != n || len(y) != n {
		panic("blas: Dsymv dimension mismatch")
	}
	if beta == 0 {
		for i := range y {
			y[i] = 0
		}
	} else if beta != 1 {
		Dscal(beta, y)
	}
	if alpha == 0 {
		return
	}
	for i := 0; i < n; i++ {
		row := a.Row(i)
		xi := x[i]
		sum := row[i] * xi
		for j := i + 1; j < n; j++ {
			v := row[j]
			sum += v * x[j]
			y[j] += alpha * v * xi
		}
		y[i] += alpha * sum
	}
}

// Dger computes the rank-1 update A ← αxyᵀ + A.
func Dger(alpha float64, x, y []float64, a *mat.Matrix) {
	if len(x) != a.Rows || len(y) != a.Cols {
		panic("blas: Dger dimension mismatch")
	}
	if alpha == 0 {
		return
	}
	for i := 0; i < a.Rows; i++ {
		Daxpy(alpha*x[i], y, a.Row(i))
	}
}
