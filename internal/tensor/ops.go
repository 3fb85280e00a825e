package tensor

import (
	"math"

	"vrex/internal/mathx"
)

// RMSNorm applies root-mean-square normalisation with learned gain to each
// row of m, writing the result into a new matrix (RMSNormInto).
func RMSNorm(m *Matrix, gain []float32, eps float32) *Matrix {
	out := new(Matrix)
	RMSNormInto(out, m, gain, eps)
	return out
}

// RMSNormInto writes the root-mean-square normalisation of each row of m,
// with learned gain, into out, resized to m's shape (Resize): out = x /
// rms(x) * gain. gain must have length m.Cols; out must not share storage
// with m.
//
//vrex:noalloc
func RMSNormInto(out, m *Matrix, gain []float32, eps float32) {
	if len(gain) != m.Cols {
		panic("tensor: RMSNorm gain length mismatch")
	}
	out.Resize(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var ss float64
		for _, v := range row {
			ss += float64(float64(v) * float64(v))
		}
		inv := float32(1 / math.Sqrt(ss/float64(m.Cols)+float64(eps)))
		orow := out.Row(i)
		for j, v := range row {
			orow[j] = v * inv * gain[j]
		}
	}
}

// siluChunk is how many exponentials SiLU computes per pass, through a
// buffer on its stack.
const siluChunk = 256

// SiLU applies x*sigmoid(x) element-wise in place: each v becomes
// v / (1 + float32(math.Exp(-float64(v)))), bit for bit. The exponentials
// come from mathx.ExpNormalize's table kernel with nothing subtracted (a
// maximum of 0: -v - 0 is -v, -0 included), in chunks of siluChunk, so
// SiLU allocates nothing.
//
//vrex:noalloc
func SiLU(m *Matrix) {
	var buf [siluChunk]float32
	for lo := 0; lo < len(m.Data); lo += siluChunk {
		d := m.Data[lo:min(lo+siluChunk, len(m.Data))]
		e := buf[:len(d)]
		for i, v := range d {
			e[i] = -v
		}
		mathx.ExpNormalize(e, e, 0)
		for i, v := range d {
			d[i] = v / (1 + e[i])
		}
	}
}
