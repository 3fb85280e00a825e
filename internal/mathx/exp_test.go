package mathx

import (
	"math"
	"testing"
)

// refExpNormalize is ExpNormalize's contract: float32(math.Exp(float64(x)))
// for x = v - max, with the max taken as ExpNormalize takes it.
func refExpNormalize(src []float32) []float32 {
	maxv := src[0]
	for _, v := range src[1:] {
		if v > maxv {
			maxv = v
		}
	}
	dst := make([]float32, len(src))
	for i, v := range src {
		dst[i] = float32(math.Exp(float64(v - maxv)))
	}
	return dst
}

// TestExpNormalizeMatchesMathExp compares ExpNormalize with
// float32(math.Exp(float64(x))) bit for bit on every 64th float32 in
// [-104, -0] (17.5M values; a one-off sweep of all 1,120,927,745 found no
// mismatch either). Each batch leads with 0, so its max is 0 and x - max is x.
// It also requires expFast's largest relative error on the sweep to stay 8x
// inside the fallback window, and some inputs to fall back near a midpoint.
func TestExpNormalizeMatchesMathExp(t *testing.T) {
	const lo, hi, stride = 0x80000000, 0xC2D00000, 64 // -0 and -104
	const batch = 4096
	src := make([]float32, 1, batch+1)
	dst := make([]float32, batch+1)
	var maxRel float64
	var values, windowed int
	check := func() {
		ExpNormalize(dst[:len(src)], src)
		for k, x := range src[1:] {
			xd := float64(x)
			want := math.Exp(xd)
			if got := dst[k+1]; math.Float32bits(got) != math.Float32bits(float32(want)) {
				t.Fatalf("ExpNormalize at x=%v (%#08x): %v, want %v", x, math.Float32bits(x), got, float32(want))
			}
			if xd >= expFastMin && xd <= expFastMax {
				e := expFast(xd)
				maxRel = max(maxRel, math.Abs(e-want)/want)
				if nearMidpoint(e) {
					windowed++
				}
			}
		}
		values += len(src) - 1
		src = src[:1]
	}
	for b := uint64(lo); b <= hi; b += stride {
		src = append(src, math.Float32frombits(uint32(b)))
		if len(src) == cap(src) {
			check()
		}
	}
	check()
	if values != (hi-lo)/stride+1 {
		t.Fatalf("swept %d values, want %d", values, (hi-lo)/stride+1)
	}
	// The window is expWindow ulps; an ulp is at least 2^-53 of the value.
	if window := expWindow * 0x1p-53; maxRel*8 > window {
		t.Errorf("expFast's largest relative error %.3g (2^%.1f) is not 8x inside the window %.3g", maxRel, math.Log2(maxRel), window)
	}
	if windowed == 0 {
		t.Error("no swept input fell back near a float32 rounding midpoint")
	}
	t.Logf("%d values, expFast max relative error %.3g (2^%.1f), %d near a midpoint", values, maxRel, math.Log2(maxRel), windowed)
}

// TestExpNormalizeSpecials covers -0 and x = 0 (math.Exp), both edges of the
// fast range and the float32s just outside them, and NaN and ±Inf in the
// source row, including as its first element and as its max.
func TestExpNormalizeSpecials(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	rows := [][]float32{
		{0, negZero, -0x1p-20, math.Nextafter32(-0x1p-20, 0), -0x1p-21, -87, math.Nextafter32(-87, -100), -100, -104, -200},
		{negZero, 0, -1},
		{1, nan, 2, -3},
		{nan, 1, 2},
		{1, inf, 2, -inf},
		{-inf, 1, -inf},
		{-inf, -inf},
		{inf, inf, nan},
		{3.5},
	}
	for _, src := range rows {
		want := refExpNormalize(src)
		got := make([]float32, len(src))
		ExpNormalize(got, src)
		for i := range src {
			if !sameBits32(got[i], want[i]) {
				t.Errorf("ExpNormalize(%v)[%d] = %v, want %v", src, i, got[i], want[i])
			}
		}
		// In place, as SelectTokens calls it.
		in := append([]float32(nil), src...)
		ExpNormalize(in, in)
		for i := range src {
			if !sameBits32(in[i], want[i]) {
				t.Errorf("in-place ExpNormalize(%v)[%d] = %v, want %v", src, i, in[i], want[i])
			}
		}
	}
}
