package tensor

import (
	"math"
	"testing"
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
