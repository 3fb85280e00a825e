package mathx

import (
	"math"
	"testing"
)

// refDot is Dot's float expression, kept here so ScoreKeys is pinned to it
// even if Dot itself is rewritten: four float64 accumulators, reduced as
// s0+s1+s2+s3, then the tail added in order, each product rounded on its own
// (converted explicitly, so that no architecture fuses it into an FMA).
func refDot(a, b []float32) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += float64(float64(a[i]) * float64(b[i]))
		s1 += float64(float64(a[i+1]) * float64(b[i+1]))
		s2 += float64(float64(a[i+2]) * float64(b[i+2]))
		s3 += float64(float64(a[i+3]) * float64(b[i+3]))
	}
	s := s0 + s1 + s2 + s3
	for ; i < len(a); i++ {
		s += float64(float64(a[i]) * float64(b[i]))
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

// canary32 and canary64 sit just past each output slice in the kernel
// tests: a kernel that writes beyond its output changes them. They are
// finite, because arithmetic on a NaN canary could leave its bits as they
// were.
const (
	canary32 float32 = -1234.5
	canary64 float64 = -1234.5
)

// offsetSlice returns n elements that start off elements into a fresh
// buffer, so off 1-3 misaligns them, and the buffer element just past them,
// which holds canary.
func offsetSlice[T float32 | float64](n, off int, canary T) ([]T, *T) {
	buf := make([]T, off+n+1)
	buf[off+n] = canary
	return buf[off : off+n : off+n], &buf[off+n]
}

// TestScoreKeysMatchesDot requires every ScoreKeys output to equal
// float32(Dot(q, key))*scale on the float32 originals, bit for bit, on every
// length from 0 to 70 (all tail lengths, and the head dims 16 and 64), with
// odd and even key counts, with and without -0, ±Inf and NaN entries, and
// with q, the keys and dst starting at every offset 0-3 from an allocation,
// so the kernel's loads and stores are unaligned. Nothing past dst may be
// written. A third family of inputs scores keys holding ±2^30 at two
// positions against a query of ones: the large terms cancel exactly and
// leave the rounding errors of the float64 sum at float32 scale, so a
// kernel that adds in another order than Dot gives other bits.
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
	// cancel sets q to ones and plants 2^30 and -2^30 at two positions of
	// each of the nKeys keys.
	cancel := func(q, keys []float32, nKeys int) {
		n := len(q)
		for i := range q {
			q[i] = 1
		}
		for j := 0; n >= 2 && j < nKeys; j++ {
			key := keys[j*n : (j+1)*n]
			a := rng.Intn(n)
			key[a], key[(a+1+rng.Intn(n-1))%n] = 1<<30, -(1 << 30)
		}
	}
	for n := 0; n <= 70; n++ {
		// special -1 draws no special values and selects the cancelling
		// inputs.
		for _, special := range []float64{0, 0.5 / float64(n+1), -1} {
			for _, nKeys := range []int{0, 1, 2, 3, 7, 8, 17} {
				for off := 0; off < 4; off++ {
					q, keys := vec(n, special), vec(n*nKeys, special)
					if special < 0 {
						cancel(q, keys, nKeys)
					}
					q64, _ := offsetSlice(n, off, canary64)
					keys64, _ := offsetSlice(len(keys), (off+1)%4, canary64)
					Widen(q64, q)
					Widen(keys64, keys)
					scale := float32(0.25 + rng.Float64())
					dst, guard := offsetSlice(nKeys, (off+2)%4, canary32)
					ScoreKeys(dst, q64, keys64, scale)
					for j := range dst {
						want := float32(refDot(q, keys[j*n:(j+1)*n])) * scale
						if !sameBits32(dst[j], want) {
							t.Fatalf("len %d, key %d of %d, offset %d: ScoreKeys %v, Dot %v", n, j, nKeys, off, dst[j], want)
						}
					}
					if math.Float32bits(*guard) != math.Float32bits(canary32) {
						t.Fatalf("len %d, %d keys, offset %d: ScoreKeys wrote past dst", n, nKeys, off)
					}
				}
			}
		}
	}
}

// TestWidenExact requires Widen to write float64(v) for each source value,
// bit for bit (any two NaNs equal), at every length from 0 to 70 and every
// offset 0-3 of source and destination, with -0, ±Inf, NaN and subnormal
// inputs, and to write nothing past dst[:len(src)]. A dst shorter than src
// panics in Widen, before the kernel runs.
func TestWidenExact(t *testing.T) {
	specials := []float32{float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), math.SmallestNonzeroFloat32, -0x1p-130}
	rng := NewRNG(98)
	for n := 0; n <= 70; n++ {
		for off := 0; off < 4; off++ {
			src, _ := offsetSlice(n, off, canary32)
			for i := range src {
				src[i] = rng.Norm32()
				if rng.Float64() < 0.2 {
					src[i] = specials[rng.Intn(len(specials))]
				}
			}
			dst, guard := offsetSlice(n, (off+1)%4, canary64)
			Widen(dst, src)
			for i, v := range src {
				want := float64(v)
				if math.Float64bits(dst[i]) != math.Float64bits(want) && !(math.IsNaN(dst[i]) && math.IsNaN(want)) {
					t.Fatalf("len %d, offset %d, element %d: Widen %v, want %v", n, off, i, dst[i], want)
				}
			}
			if math.Float64bits(*guard) != math.Float64bits(canary64) {
				t.Fatalf("len %d, offset %d: Widen wrote past dst", n, off)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Widen into a short dst did not panic")
		}
	}()
	Widen(make([]float64, 3), make([]float32, 4))
}

func TestScoreKeysLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched lengths")
		}
	}()
	ScoreKeys(make([]float32, 2), make([]float64, 4), make([]float64, 7), 1)
}
