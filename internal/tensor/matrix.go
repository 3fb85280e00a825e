// Package tensor implements the dense float32 linear-algebra kernels the
// functional transformer, the vision encoder and the ReSV algorithm are built
// on: row-major matrices, matrix multiplication, normalisation and
// activations. There is no transposed product: attention and ReSV score keys
// one row at a time through mathx.ScoreKeys.
//
// MatMul's inner loops, the axpy kernels, are SSE2 assembly on amd64, four
// output columns per instruction, and plain Go loops on other
// architectures. Both round every product and sum in the order of the Go
// expression, with no FMA, so every output has the same bits on both.
package tensor

import (
	"fmt"
	"sync/atomic"

	"vrex/internal/mathx"
	"vrex/internal/parallel"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols
}

// NewMatrix allocates a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromRows builds a matrix from row slices, which must all share a length.
func FromRows(rows [][]float32) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic("tensor: ragged rows")
		}
		copy(m.Row(i), r)
	}
	return m
}

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
//
//vrex:testonly tensor and model tests read single elements through it
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// String implements fmt.Stringer with a compact shape description.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}

// Randomize fills m with N(0, scale) variates drawn from rng.
func (m *Matrix) Randomize(rng *mathx.RNG, scale float32) {
	for i := range m.Data {
		m.Data[i] = rng.Norm32() * scale
	}
}

// matmulGrain is the flop count below which MatMul stays on the
// caller's goroutine: sharding tiny products costs more in hand-off than the
// multiply itself.
const matmulGrain = 1 << 16

// matmulWorkers is the process-wide worker bound for MatMul (the kernel
// sits below every call path, so the knob is a package setting rather
// than a parameter threaded through each caller). 0 means GOMAXPROCS.
var matmulWorkers atomic.Int64

// SetWorkers bounds the worker count MatMul shards across: 0 uses
// GOMAXPROCS, 1 pins the kernel to the caller's goroutine. The CLIs
// wire their -parallel flag here so `-parallel 1` is fully sequential.
// Results are identical for any setting.
func SetWorkers(n int) { matmulWorkers.Store(int64(n)) }

// workersFor resolves the worker count for a product of the given flop
// count.
func workersFor(flops int) int {
	if flops < matmulGrain {
		return 1
	}
	return int(matmulWorkers.Load())
}

// Resize makes m a rows x cols matrix, reusing its storage when it holds
// rows*cols values and allocating a zeroed one otherwise. Reused values are
// left as they were.
func (m *Matrix) Resize(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic("tensor: negative dimension")
	}
	if cap(m.Data) < rows*cols {
		m.Data = make([]float32, rows*cols)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
}

// MatMul returns a*b in a new matrix (MatMulInto).
func MatMul(a, b *Matrix) *Matrix {
	out := new(Matrix)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto writes a*b into out, resized to a.Rows x b.Cols (Resize), so
// a caller that keeps out allocates nothing once its storage is large
// enough. out must not share storage with a or b. Panics on shape
// mismatch. Output rows are computed in pairs that share their B loads;
// pairs are independent, so large products are sharded pair-wise across
// the worker pool, and the result is identical for any worker count.
func MatMulInto(out, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %v x %v", a, b))
	}
	out.Resize(a.Rows, b.Cols)
	clear(out.Data)
	pairs := (a.Rows + 1) / 2
	// The sequential path runs the plain loop without constructing the
	// fan-out closure, keeping small products allocation-free.
	if w := parallel.Workers(workersFor(a.Rows * a.Cols * b.Cols)); w <= 1 {
		for p := 0; p < pairs; p++ {
			matmulPair(a, b, out, p)
		}
	} else {
		parallel.ForEach(w, pairs, func(p int) {
			matmulPair(a, b, out, p)
		})
	}
}

// matmulPair computes output rows 2p and 2p+1 of a*b, or only row 2p when
// it is the last of an odd row count.
//
//vrex:noalloc
func matmulPair(a, b, out *Matrix, p int) {
	i := 2 * p
	if i+1 == a.Rows {
		matmulRow(a.Row(i), b, out.Row(i))
		return
	}
	matmulRow2(a.Row(i), a.Row(i+1), b, out.Row(i), out.Row(i+1))
}

// matmulRow accumulates one output row: orow += arow * b. The k-loop is
// unrolled 4-wide so each pass touches four B rows per load/store of the
// output row, which is the kernel's memory bottleneck. A 4-group whose A
// values are all zero is skipped, and so is a zero A value in the tail:
// skipping differs from adding 0*x when x is -0, ±Inf or NaN, and every
// kernel here keeps these rules.
//
//vrex:noalloc
func matmulRow(arow []float32, b *Matrix, orow []float32) {
	n := b.Cols
	orow = orow[:n]
	k := 0
	for ; k+4 <= len(arow); k += 4 {
		x := (*[4]float32)(arow[k : k+4])
		if x[0] == 0 && x[1] == 0 && x[2] == 0 && x[3] == 0 {
			continue
		}
		axpy4(orow, x, b.Data[k*n:(k+4)*n])
	}
	for ; k < len(arow); k++ {
		if x := arow[k]; x != 0 {
			axpy(orow, x, b.Data[k*n:(k+1)*n])
		}
	}
}

// matmulRow2 is matmulRow for two rows at once: o0 += a0 * b and
// o1 += a1 * b. When both rows use a 4-group, each B element is loaded once
// for the two of them; each output still gets exactly the terms, zero skips
// and order that matmulRow gives it.
//
//vrex:noalloc
func matmulRow2(a0, a1 []float32, b *Matrix, o0, o1 []float32) {
	n := b.Cols
	o0, o1 = o0[:n], o1[:n]
	a1 = a1[:len(a0)]
	k := 0
	for ; k+4 <= len(a0); k += 4 {
		x, y := (*[4]float32)(a0[k:k+4]), (*[4]float32)(a1[k:k+4])
		zx := x[0] == 0 && x[1] == 0 && x[2] == 0 && x[3] == 0
		zy := y[0] == 0 && y[1] == 0 && y[2] == 0 && y[3] == 0
		switch g := b.Data[k*n : (k+4)*n]; {
		case zx && zy:
		case zy:
			axpy4(o0, x, g)
		case zx:
			axpy4(o1, y, g)
		default:
			axpy4x2(o0, o1, x, y, g)
		}
	}
	for ; k < len(a0); k++ {
		brow := b.Data[k*n : (k+1)*n]
		if x := a0[k]; x != 0 {
			axpy(o0, x, brow)
		}
		if y := a1[k]; y != 0 {
			axpy(o1, y, brow)
		}
	}
}

// axpy4 adds one 4-group's terms to an output row:
// o[j] += x[0]*b0[j] + x[1]*b1[j] + x[2]*b2[j] + x[3]*b3[j], where g holds
// the group's four B rows b0..b3 of len(o) columns each. The three axpy
// kernels are SSE2 assembly on amd64 (axpy_amd64.s) and Go elsewhere
// (axpy_generic.go); both round every product and sum as this expression
// does, in its order. These wrappers check the lengths the assembly relies
// on.
//
//vrex:noalloc
func axpy4(o []float32, x *[4]float32, g []float32) {
	if len(g) != 4*len(o) {
		panic("tensor: axpy4 length mismatch")
	}
	axpy4Kernel(o, x, g)
}

// axpy4x2 is axpy4 for two output rows over the same four B rows.
//
//vrex:noalloc
func axpy4x2(o0, o1 []float32, x, y *[4]float32, g []float32) {
	if len(o1) != len(o0) || len(g) != 4*len(o0) {
		panic("tensor: axpy4x2 length mismatch")
	}
	axpy4x2Kernel(o0, o1, x, y, g)
}

// axpy adds one tail term to an output row: o[j] += x * brow[j].
//
//vrex:noalloc
func axpy(o []float32, x float32, brow []float32) {
	if len(brow) != len(o) {
		panic("tensor: axpy length mismatch")
	}
	axpyKernel(o, x, brow)
}

// AddInPlace adds b to a element-wise.
func AddInPlace(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("tensor: AddInPlace shape mismatch")
	}
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}
