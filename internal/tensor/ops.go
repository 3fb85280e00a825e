package tensor

import (
	"math"
)

// RMSNorm applies root-mean-square normalisation with learned gain to each
// row of m, writing the result into a new matrix: out = x / rms(x) * gain.
// gain must have length m.Cols.
func RMSNorm(m *Matrix, gain []float32, eps float32) *Matrix {
	if len(gain) != m.Cols {
		panic("tensor: RMSNorm gain length mismatch")
	}
	out := NewMatrix(m.Rows, m.Cols)
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
	return out
}

// SiLU applies x*sigmoid(x) element-wise in place.
func SiLU(m *Matrix) {
	for i, v := range m.Data {
		m.Data[i] = v / (1 + float32(math.Exp(-float64(v))))
	}
}
