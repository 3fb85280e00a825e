package tensor

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"vrex/internal/mathx"
)

// The reference kernel below is the unpaired form MatMul replaced: one
// output row at a time. It spells out each output element's float
// expression; the paired kernel must reproduce it bit for bit, zero skips
// included.

// refMatMulRow is one output row of a*b: 4-groups of A values whose four
// values all equal zero are skipped, as are zero A values in the tail.
func refMatMulRow(arow []float32, b *Matrix, orow []float32) {
	n := b.Cols
	k := 0
	for ; k+4 <= len(arow); k += 4 {
		a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
		if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
			continue
		}
		b0 := b.Data[k*n : k*n+n]
		b1 := b.Data[(k+1)*n : (k+1)*n+n]
		b2 := b.Data[(k+2)*n : (k+2)*n+n]
		b3 := b.Data[(k+3)*n : (k+3)*n+n]
		for j := 0; j < n; j++ {
			orow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
	}
	for ; k < len(arow); k++ {
		av := arow[k]
		if av == 0 {
			continue
		}
		brow := b.Row(k)
		for j := range brow {
			orow[j] += av * brow[j]
		}
	}
}

func refMatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		refMatMulRow(a.Row(i), b, out.Row(i))
	}
	return out
}

// specials are the values for which skipping a term differs from adding it.
var specials = []float32{
	float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
}

// diffMatrix is a random rows x cols matrix in which about a fraction
// special of the entries is -0, ±Inf or NaN.
func diffMatrix(rng *mathx.RNG, rows, cols int, special float64) *Matrix {
	m := NewMatrix(rows, cols)
	m.Randomize(rng, 1)
	for i := range m.Data {
		if rng.Float64() < special {
			m.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
	return m
}

// plantZeroGroups zeroes a 4-group of columns in one row of each row pair
// and leaves the other row's group alone, so the paired kernel must skip
// the group for one output and use it for the other. The planted zeros mix
// +0 and -0, which also counts as zero. It also zeroes a tail entry in one
// row of each pair.
func plantZeroGroups(rng *mathx.RNG, a *Matrix) {
	zeros := [2]float32{0, specials[0]}
	groups := a.Cols / 4
	for i := 0; i+1 < a.Rows; i += 2 {
		if groups > 0 {
			r := a.Row(i + rng.Intn(2))
			g := 4 * rng.Intn(groups)
			for k := g; k < g+4; k++ {
				r[k] = zeros[rng.Intn(2)]
			}
			// The same group zeroed in both rows of a later pair too.
			if i+3 < a.Rows {
				for k := g; k < g+4; k++ {
					a.Row(i + 2)[k], a.Row(i + 3)[k] = 0, 0
				}
			}
		}
		if tail := a.Cols % 4; tail > 0 {
			a.Row(i + rng.Intn(2))[a.Cols-1-rng.Intn(tail)] = 0
		}
	}
}

// sameBits32 reports the first element whose bit pattern differs. Any two
// NaNs count as equal: Go leaves the sign and payload of a NaN result
// unspecified, and the compiler may commute x+y, so when two different NaNs
// meet (an input NaN and one made by Inf-Inf, say) which one survives
// depends on register allocation, not on the float expression.
func sameBits32(got, want []float32) (int, bool) {
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(math.IsNaN(float64(g)) && math.IsNaN(float64(w))) {
			return i, false
		}
	}
	return 0, true
}

// TestKernelsMatchUnpairedReference pins MatMul to the unpaired reference
// kernel bit for bit, on odd row counts, widths with a tail (not a multiple
// of 4), the model's widths 16 and 64, planted zero 4-groups in one row of a
// pair, and -0, ±Inf and NaN entries, at one and at four workers (the last
// shapes exceed the sharding grain). mathx.ScoreKeys, the kernel that scores
// keys, has its own bit-identity test.
func TestKernelsMatchUnpairedReference(t *testing.T) {
	defer SetWorkers(0)
	// {rows of A, inner width, columns of B}.
	shapes := [][3]int{
		{1, 1, 1}, {1, 5, 3}, {2, 3, 2}, {3, 7, 5}, {4, 6, 9}, {5, 13, 11},
		{7, 16, 17}, {9, 64, 33}, {10, 16, 536}, {10, 64, 64}, {10, 64, 128}, {10, 128, 64},
		{33, 64, 65}, {35, 67, 63},
	}
	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		for _, sh := range shapes {
			rows, k, cols := sh[0], sh[1], sh[2]
			// Half a special value per dot product on average keeps most
			// outputs finite, so a term that should have been skipped shows.
			for _, special := range []float64{0, 0.5 / float64(k)} {
				name := fmt.Sprintf("w%d/%dx%dx%d/special%.3f", workers, rows, k, cols, special)
				rng := mathx.NewRNG(uint64(1 + rows*1000003 + k*1009 + cols + workers<<20))
				for trial := 0; trial < 4; trial++ {
					a := diffMatrix(rng, rows, k, special)
					plantZeroGroups(rng, a)
					b := diffMatrix(rng, k, cols, special)
					if i, ok := sameBits32(MatMul(a, b).Data, refMatMul(a, b).Data); !ok {
						t.Fatalf("%s trial %d: MatMul element %d differs from the unpaired reference", name, trial, i)
					}
				}
			}
		}
	}
}

// canary sits just past each output row in the axpy kernel tests: a kernel
// that writes beyond its row changes it. It is finite, because arithmetic on
// a NaN canary could leave its bits as they were.
const canary float32 = -1234.5

// offsetRow returns n values that start off elements into a fresh buffer,
// so off 1-3 misaligns them, and the buffer element just past them, which
// holds canary. With special > 0, about that fraction of the values is -0,
// ±Inf or NaN.
func offsetRow(rng *mathx.RNG, n, off int, special float64) ([]float32, *float32) {
	buf := make([]float32, off+n+1)
	for i := range buf[:off+n] {
		buf[i] = rng.Norm32()
		if rng.Float64() < special {
			buf[i] = specials[rng.Intn(len(specials))]
		}
	}
	buf[off+n] = canary
	return buf[off : off+n : off+n], &buf[off+n]
}

// nonZeroGroup draws a 4-group of A values, not all zero (refMatMulRow
// skips an all-zero group, which the kernels are never called with).
func nonZeroGroup(rng *mathx.RNG, special float64) *[4]float32 {
	g, _ := offsetRow(rng, 4, 0, special)
	x := (*[4]float32)(g)
	if x[0] == 0 && x[1] == 0 && x[2] == 0 && x[3] == 0 {
		x[0] = 1
	}
	return x
}

// TestAxpyKernelsUnaligned pins axpy4, axpy4x2 and axpy, called directly, to
// the unpaired reference row bit for bit at every width from 0 to 70 (every
// tail of the 4-wide loop) with the output rows and B rows starting at every
// offset 0-3 from an allocation, so the kernels' loads and stores are
// unaligned, and with and without -0, ±Inf and NaN entries. Nothing past an
// output row may be written.
func TestAxpyKernelsUnaligned(t *testing.T) {
	rng := mathx.NewRNG(11)
	check := func(name string, n, off int, got, want []float32, guard *float32) {
		t.Helper()
		if i, ok := sameBits32(got, want); !ok {
			t.Fatalf("%s, width %d, offset %d: element %d is %v, reference %v", name, n, off, i, got[i], want[i])
		}
		if math.Float32bits(*guard) != math.Float32bits(canary) {
			t.Fatalf("%s, width %d, offset %d: wrote past the output row", name, n, off)
		}
	}
	for n := 0; n <= 70; n++ {
		for _, special := range []float64{0, 0.1} {
			for off := 0; off < 4; off++ {
				g, _ := offsetRow(rng, 4*n, (off+1)%4, special)
				group := &Matrix{Rows: 4, Cols: n, Data: g}
				x, y := nonZeroGroup(rng, special), nonZeroGroup(rng, special)

				o, guard := offsetRow(rng, n, off, special)
				want := slices.Clone(o)
				refMatMulRow(x[:], group, want)
				axpy4(o, x, g)
				check("axpy4", n, off, o, want, guard)

				o0, guard0 := offsetRow(rng, n, off, special)
				o1, guard1 := offsetRow(rng, n, (off+2)%4, special)
				want0, want1 := slices.Clone(o0), slices.Clone(o1)
				refMatMulRow(x[:], group, want0)
				refMatMulRow(y[:], group, want1)
				axpy4x2(o0, o1, x, y, g)
				check("axpy4x2 row 0", n, off, o0, want0, guard0)
				check("axpy4x2 row 1", n, off, o1, want1, guard1)

				a := x[0]
				if a == 0 {
					a = -2 // matmulRow never calls axpy with a zero A value
				}
				brow, _ := offsetRow(rng, n, (off+3)%4, special)
				o, guard = offsetRow(rng, n, off, special)
				want = slices.Clone(o)
				refMatMulRow([]float32{a}, &Matrix{Rows: 1, Cols: n, Data: brow}, want)
				axpy(o, a, brow)
				check("axpy", n, off, o, want, guard)
			}
		}
	}
}

// TestAxpyLengthMismatchPanics requires the wrappers to reject rows too
// short for the kernels, which check no bounds themselves.
func TestAxpyLengthMismatchPanics(t *testing.T) {
	x := &[4]float32{1, 2, 3, 4}
	cases := []struct {
		name string
		call func()
	}{
		{"axpy4 short group", func() { axpy4(make([]float32, 8), x, make([]float32, 31)) }},
		{"axpy4x2 short second row", func() { axpy4x2(make([]float32, 8), make([]float32, 7), x, x, make([]float32, 32)) }},
		{"axpy4x2 short group", func() { axpy4x2(make([]float32, 8), make([]float32, 8), x, x, make([]float32, 31)) }},
		{"axpy short B row", func() { axpy(make([]float32, 8), 1, make([]float32, 7)) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.call()
		}()
	}
}
