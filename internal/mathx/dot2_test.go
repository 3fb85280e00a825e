package mathx

import (
	"math"
	"testing"
)

// refDot is Dot's float expression, kept here so Dot2 is pinned to it even
// if Dot itself is rewritten: four float64 accumulators, reduced as
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

// sameBits64 compares bit patterns, counting any two NaNs as equal: Go
// leaves the sign and payload of a NaN result unspecified, and which of two
// NaN operands survives an addition depends on operand order the compiler
// may commute.
func sameBits64(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
}

// TestDot2MatchesDot requires both of Dot2's results to equal Dot's bit for
// bit on every length from 0 to 70 (all tail lengths, and the head dims 16
// and 64), with and without -0, ±Inf and NaN entries.
func TestDot2MatchesDot(t *testing.T) {
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
			for trial := 0; trial < 20; trial++ {
				a, b0, b1 := vec(n, special), vec(n, special), vec(n, special)
				d0, d1 := Dot2(a, b0, b1)
				if w := refDot(a, b0); !sameBits64(d0, w) || !sameBits64(d0, Dot(a, b0)) {
					t.Fatalf("len %d trial %d: first Dot2 result %v, Dot %v", n, trial, d0, w)
				}
				if w := refDot(a, b1); !sameBits64(d1, w) || !sameBits64(d1, Dot(a, b1)) {
					t.Fatalf("len %d trial %d: second Dot2 result %v, Dot %v", n, trial, d1, w)
				}
			}
		}
	}
}

func TestDot2LengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched lengths")
		}
	}()
	Dot2(make([]float32, 4), make([]float32, 4), make([]float32, 3))
}
