package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"vrex/internal/mathx"
)

func TestRMSNormUnitRMS(t *testing.T) {
	m := FromRows([][]float32{{3, 4, 0, 0}})
	gain := []float32{1, 1, 1, 1}
	out := RMSNorm(m, gain, 1e-6)
	var ss float64
	for _, v := range out.Row(0) {
		ss += float64(v) * float64(v)
	}
	rms := math.Sqrt(ss / 4)
	if math.Abs(rms-1) > 1e-3 {
		t.Fatalf("post-norm RMS = %v, want ~1", rms)
	}
}

func TestRMSNormGain(t *testing.T) {
	m := FromRows([][]float32{{1, 1}})
	out := RMSNorm(m, []float32{2, 3}, 0)
	if math.Abs(float64(out.At(0, 0))-2) > 1e-5 || math.Abs(float64(out.At(0, 1))-3) > 1e-5 {
		t.Fatalf("gain not applied: %v", out.Row(0))
	}
}

func TestSiLU(t *testing.T) {
	m := FromRows([][]float32{{0, 10, -10}})
	SiLU(m)
	if m.At(0, 0) != 0 {
		t.Fatal("silu(0) != 0")
	}
	if math.Abs(float64(m.At(0, 1))-10) > 1e-3 {
		t.Fatal("silu(10) should be ~10")
	}
	if math.Abs(float64(m.At(0, 2))) > 1e-3 {
		t.Fatal("silu(-10) should be ~0")
	}
}

func TestRoPEPreservesNorm(t *testing.T) {
	rng := mathx.NewRNG(3)
	m := NewMatrix(5, 8)
	m.Randomize(rng, 1)
	var before []float64
	for i := 0; i < m.Rows; i++ {
		before = append(before, mathx.Dot(m.Row(i), m.Row(i)))
	}
	RoPE(m, 7, 10000)
	for i := 0; i < m.Rows; i++ {
		after := mathx.Dot(m.Row(i), m.Row(i))
		if math.Abs(after-before[i]) > 1e-3 {
			t.Fatalf("RoPE changed norm of row %d: %v -> %v", i, before[i], after)
		}
	}
}

func TestRoPERelativeProperty(t *testing.T) {
	// dot(RoPE(q,p1), RoPE(k,p2)) depends only on p1-p2: rotating both by the
	// same additional offset must preserve the dot product.
	rng := mathx.NewRNG(4)
	q := NewMatrix(1, 16)
	k := NewMatrix(1, 16)
	q.Randomize(rng, 1)
	k.Randomize(rng, 1)
	q1, k1 := q.Clone(), k.Clone()
	RoPE(q1, 10, 10000)
	RoPE(k1, 3, 10000)
	d1 := mathx.Dot(q1.Row(0), k1.Row(0))
	q2, k2 := q.Clone(), k.Clone()
	RoPE(q2, 110, 10000)
	RoPE(k2, 103, 10000)
	d2 := mathx.Dot(q2.Row(0), k2.Row(0))
	if math.Abs(d1-d2) > 1e-3 {
		t.Fatalf("RoPE relative property violated: %v vs %v", d1, d2)
	}
}

func TestRoPEPositionZeroIsIdentity(t *testing.T) {
	rng := mathx.NewRNG(5)
	m := NewMatrix(1, 8)
	m.Randomize(rng, 1)
	c := m.Clone()
	RoPE(c, 0, 10000)
	for i := range m.Data {
		if math.Abs(float64(m.Data[i]-c.Data[i])) > 1e-6 {
			t.Fatal("RoPE at position 0 should be identity")
		}
	}
}

func TestRoPEOddDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RoPE(NewMatrix(1, 3), 0, 10000)
}

func TestBf16RoundIdempotent(t *testing.T) {
	f := func(v float32) bool {
		if math.IsNaN(float64(v)) {
			return true
		}
		once := Bf16Round(v)
		twice := Bf16Round(once)
		return once == twice || (math.IsNaN(float64(once)) && math.IsNaN(float64(twice)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBf16RoundError(t *testing.T) {
	// bf16 has ~3 decimal digits; relative error must be < 2^-8.
	vals := []float32{1.2345, -987.654, 3.14159e-5, 2.71828e10}
	for _, v := range vals {
		r := Bf16Round(v)
		rel := math.Abs(float64(r-v)) / math.Abs(float64(v))
		if rel > 1.0/256 {
			t.Errorf("bf16 relative error too large for %v: %v", v, rel)
		}
	}
}

func TestBf16ExactValues(t *testing.T) {
	for _, v := range []float32{0, 1, -1, 0.5, 2, 256} {
		if Bf16Round(v) != v {
			t.Errorf("Bf16Round(%v) = %v, want exact", v, Bf16Round(v))
		}
	}
}
