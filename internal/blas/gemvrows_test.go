package blas

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// DgemvRows conformance: the two-row GEMV must reproduce per-row Dgemv
// bit for bit — odd and even row counts (the odd tail takes the
// one-row path), every (lo, hi) sub-range with rows outside it left
// untouched, strided views, the α/β special cases, and special values
// (−0, subnormals, ±Inf, NaN) whose propagation exposes any change in
// the order of operations. Every non-NaN result must match in its exact
// bit pattern, signed zeros included; a NaN must meet a NaN. NaN
// payloads are not compared: IEEE 754 leaves them unspecified, and on
// amd64 an addition passes on the payload of whichever operand the
// compiler placed first, which it may commute.

// gemvRowsRef applies Dgemv to each row of [lo, hi).
func gemvRowsRef(alpha float64, a, x *mat.Matrix, beta float64, y *mat.Matrix, lo, hi int) {
	for p := lo; p < hi; p++ {
		Dgemv(false, alpha, a, x.Row(p), beta, y.Row(p))
	}
}

// specialValues are the operands whose arithmetic is most sensitive to
// operation order and signed zeros.
var specialValues = []float64{
	0, math.Copysign(0, -1), 5e-324, -2.5e-310, 1e-300, -1e300,
	math.Inf(1), math.Inf(-1), math.NaN(), 1, -1, 0.1,
}

// sprinkle overwrites roughly one element in every `every` of m with a
// special value (every ≤ 0 leaves m unchanged).
func sprinkle(rng *rand.Rand, m *mat.Matrix, every int) {
	if every <= 0 {
		return
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			if rng.Intn(every) == 0 {
				row[j] = specialValues[rng.Intn(len(specialValues))]
			}
		}
	}
}

func checkGemvRows(t *testing.T, alpha float64, a, x *mat.Matrix, beta float64, y0 *mat.Matrix, pad, lo, hi int) {
	t.Helper()
	want := cloneVals(y0, pad)
	gemvRowsRef(alpha, a, x, beta, want, lo, hi)
	got := cloneVals(y0, pad)
	DgemvRows(alpha, a, x, beta, got, lo, hi)
	for i := 0; i < got.Rows; i++ {
		g, w := got.Row(i), want.Row(i)
		for j := range g {
			if math.Float64bits(g[j]) != math.Float64bits(w[j]) && !(math.IsNaN(g[j]) && math.IsNaN(w[j])) {
				t.Fatalf("DgemvRows %d×%d rows=%d pad=%d α=%g β=%g range [%d,%d): element (%d,%d) = %x, per-row Dgemv %x",
					a.Rows, a.Cols, x.Rows, pad, alpha, beta, lo, hi, i, j, math.Float64bits(g[j]), math.Float64bits(w[j]))
			}
		}
	}
}

func TestGemvRowsConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, m := range []int{1, 3, 4, 5, 8, 61} {
		for _, n := range []int{1, 3, 4, 5, 8, 61} {
			for _, rows := range []int{1, 2, 3, 7, 8, 64} {
				for _, pad := range []int{0, 3} {
					a := strided(rng, m, n, pad)
					x := strided(rng, rows, n, pad)
					y0 := strided(rng, rows, m, pad)
					for _, alpha := range confScales {
						for _, beta := range confScales {
							checkGemvRows(t, alpha, a, x, beta, y0, pad, 0, rows)
						}
					}
					for _, rg := range subRanges(rows) {
						checkGemvRows(t, 1.25, a, x, -0.5, y0, pad, rg[0], rg[1])
					}
				}
			}
		}
	}
}

func TestGemvRowsSpecialValues(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, every := range []int{1, 3, 20} {
		for _, rows := range []int{1, 2, 5, 64} {
			for _, n := range []int{3, 4, 61} {
				a := strided(rng, n, n, 1)
				x := strided(rng, rows, n, 1)
				y0 := strided(rng, rows, n, 1)
				sprinkle(rng, a, every)
				sprinkle(rng, x, every)
				sprinkle(rng, y0, every)
				for _, alpha := range []float64{1, -1, 0, math.Copysign(0, -1), 5e-324} {
					for _, beta := range []float64{0, 1, -1, 0.5} {
						checkGemvRows(t, alpha, a, x, beta, y0, 1, 0, rows)
					}
				}
			}
		}
	}
}

func TestGemvRowsPanics(t *testing.T) {
	a := mat.New(3, 4)
	for name, call := range map[string]func(){
		"x cols":   func() { DgemvRows(1, a, mat.New(2, 3), 0, mat.New(2, 3), 0, 2) },
		"y cols":   func() { DgemvRows(1, a, mat.New(2, 4), 0, mat.New(2, 4), 0, 2) },
		"hi > x":   func() { DgemvRows(1, a, mat.New(2, 4), 0, mat.New(3, 3), 0, 3) },
		"lo > hi":  func() { DgemvRows(1, a, mat.New(2, 4), 0, mat.New(2, 3), 2, 1) },
		"negative": func() { DgemvRows(1, a, mat.New(2, 4), 0, mat.New(2, 3), -1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// FuzzGemvRows fuzzes DgemvRows against per-row Dgemv: random shapes,
// strides, sub-ranges, scales (any float64, NaN and Inf included) and
// operands salted with special values. CI runs this as a 30-second
// smoke next to FuzzDgemmNT; the committed corpus under
// testdata/fuzz/FuzzGemvRows seeds the 61-state codon shapes.
func FuzzGemvRows(f *testing.F) {
	// (m, n, rows, pad, salt, alpha, beta, seed); sizes are stored
	// minus one, so 60 is the 61-state codon shape.
	f.Add(uint8(60), uint8(60), uint8(63), uint8(0), uint8(0), 1.0, 0.0, int64(1))
	f.Add(uint8(60), uint8(60), uint8(6), uint8(2), uint8(5), 1.0, 0.0, int64(2))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), -1.0, 0.5, int64(3))
	f.Add(uint8(5), uint8(3), uint8(2), uint8(3), uint8(2), 0.5, -1.0, int64(4))

	f.Fuzz(func(t *testing.T, m, n, rows, pad, salt uint8, alpha, beta float64, seed int64) {
		mi, ni, ri, pi := int(m%70)+1, int(n%70)+1, int(rows%70)+1, int(pad%5)
		rng := rand.New(rand.NewSource(seed))
		a := strided(rng, mi, ni, pi)
		x := strided(rng, ri, ni, pi)
		y0 := strided(rng, ri, mi, pi)
		every := int(salt % 8)
		sprinkle(rng, a, every)
		sprinkle(rng, x, every)
		sprinkle(rng, y0, every)
		lo := rng.Intn(ri + 1)
		hi := lo + rng.Intn(ri-lo+1)
		checkGemvRows(t, alpha, a, x, beta, y0, pi, lo, hi)
	})
}
