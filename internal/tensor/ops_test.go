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

// TestSiLUMatchesMathExp requires SiLU to equal
// v / (1 + float32(math.Exp(-float64(v)))) bit for bit (any two NaNs equal)
// on every 61st float32 bit pattern, NaNs, ±Inf, ±0 and subnormals among
// them (70.4M values), in matrices whose lengths leave partial chunks.
func TestSiLUMatchesMathExp(t *testing.T) {
	const stride = 61
	m := NewMatrix(1, 4099)
	want := make([]float32, 0, len(m.Data))
	values := 0
	check := func() {
		m.Cols = len(want)
		m.Data = m.Data[:len(want)]
		SiLU(m)
		for i, w := range want {
			if got := m.Data[i]; math.Float32bits(got) != math.Float32bits(w) && !(got != got && w != w) {
				t.Fatalf("SiLU: element %d = %v, want %v", i, got, w)
			}
		}
		values += len(want)
		want = want[:0]
		m.Data = m.Data[:cap(m.Data)]
	}
	extra := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 1e-45, -1e-45, 88, -88, 87, -87}
	for b := uint64(0); b <= math.MaxUint32+uint64(len(extra)); b += stride {
		v := math.Float32frombits(uint32(b))
		if b > math.MaxUint32 {
			v = extra[b-math.MaxUint32-1]
		}
		m.Data[len(want)] = v
		want = append(want, v/(1+float32(math.Exp(-float64(v)))))
		if len(want) == cap(want) {
			check()
		}
	}
	check()
	t.Logf("%d values", values)
}
