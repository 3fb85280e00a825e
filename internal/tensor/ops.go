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
			ss += float64(v) * float64(v)
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

// RoPE applies rotary position embedding in place to each row of m, treating
// row i as the token at absolute position basePos+i. The row dimension must
// be even: consecutive pairs (2k, 2k+1) are rotated by angle
// pos * theta^(-2k/d), the standard Llama formulation.
func RoPE(m *Matrix, basePos int, theta float64) {
	d := m.Cols
	if d%2 != 0 {
		panic("tensor: RoPE requires even dimension")
	}
	for i := 0; i < m.Rows; i++ {
		pos := float64(basePos + i)
		row := m.Row(i)
		for k := 0; k < d/2; k++ {
			freq := math.Pow(theta, -2*float64(k)/float64(d))
			angle := pos * freq
			sin, cos := math.Sincos(angle)
			a, b := float64(row[2*k]), float64(row[2*k+1])
			row[2*k] = float32(a*cos - b*sin)
			row[2*k+1] = float32(a*sin + b*cos)
		}
	}
}

// Bf16Round rounds v to bfloat16 precision (truncating the mantissa to 7
// bits with round-to-nearest-even) and returns the result as float32. The KV
// cache storage model uses this to emulate BF16 on-chip precision.
func Bf16Round(v float32) float32 {
	bits := math.Float32bits(v)
	// Round to nearest even at bit 16.
	lsb := (bits >> 16) & 1
	bits += 0x7fff + lsb
	bits &= 0xffff0000
	return math.Float32frombits(bits)
}
