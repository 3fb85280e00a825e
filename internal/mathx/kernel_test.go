package mathx

import (
	"math"
	"testing"
)

// refDot is Dot's float expression, kept here so ScoreKeys is pinned to it
// even if Dot itself is rewritten: four float64 accumulators, reduced as
// s0+s1+s2+s3, then the tail added in order.
func refDot(a, b []float32) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += float64(a[i]) * float64(b[i])
		s1 += float64(a[i+1]) * float64(b[i+1])
		s2 += float64(a[i+2]) * float64(b[i+2])
		s3 += float64(a[i+3]) * float64(b[i+3])
	}
	s := s0 + s1 + s2 + s3
	for ; i < len(a); i++ {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// sameBits32 compares bit patterns, counting any two NaNs as equal: Go
// leaves the sign and payload of a NaN result unspecified, and which of two
// NaN operands survives an addition depends on operand order the compiler
// may commute.
func sameBits32(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || math.IsNaN(float64(x)) && math.IsNaN(float64(y))
}

// TestScoreKeysMatchesDot requires every ScoreKeys output to equal
// float32(Dot(q, key))*scale on the float32 originals, bit for bit, on every
// length from 0 to 70 (all tail lengths, and the head dims 16 and 64), with
// odd and even key counts, and with and without -0, ±Inf and NaN entries.
func TestScoreKeysMatchesDot(t *testing.T) {
	specials := []float32{float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	rng := NewRNG(97)
	vec := func(n int, special float64) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = rng.Norm32()
			if rng.Float64() < special {
				v[i] = specials[rng.Intn(len(specials))]
			}
		}
		return v
	}
	for n := 0; n <= 70; n++ {
		for _, special := range []float64{0, 0.5 / float64(n+1)} {
			for _, nKeys := range []int{0, 1, 2, 3, 7, 8, 17} {
				q := vec(n, special)
				keys := vec(n*nKeys, special)
				q64, keys64 := make([]float64, n), make([]float64, len(keys))
				Widen(q64, q)
				Widen(keys64, keys)
				scale := float32(0.25 + rng.Float64())
				dst := make([]float32, nKeys)
				ScoreKeys(dst, q64, keys64, scale)
				for j := range dst {
					want := float32(refDot(q, keys[j*n:(j+1)*n])) * scale
					if !sameBits32(dst[j], want) {
						t.Fatalf("len %d, key %d of %d: ScoreKeys %v, Dot %v", n, j, nKeys, dst[j], want)
					}
				}
			}
		}
	}
}

func TestScoreKeysLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched lengths")
		}
	}()
	ScoreKeys(make([]float32, 2), make([]float64, 4), make([]float64, 7), 1)
}
