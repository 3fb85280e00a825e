package mathx

import (
	"fmt"
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

// refWeighted is WiCSum's preprocess loop over an exp-normalised row, the
// contract of ExpNormalizeWeighted's results: the sum of float64(float64(v)
// * w[j]) in index order, and the smallest and largest v folded from
// mass[0] with < and >.
func refWeighted(mass []float32, w []float64) (total float64, lo, hi float32) {
	if len(mass) == 0 {
		return 0, float32(math.Inf(1)), float32(math.Inf(-1))
	}
	lo, hi = mass[0], mass[0]
	for j, v := range mass {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		total += float64(float64(v) * w[j])
	}
	return total, lo, hi
}

// weights returns n past-token counts as ExpNormalizeWeighted's weights:
// small integers, with now and then a large one.
func weights(rng *RNG, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(1 + rng.Intn(64))
		if rng.Float64() < 0.05 {
			w[i] = float64(rng.Intn(1 << 28))
		}
	}
	return w
}

// checkWeighted runs ExpNormalizeWeighted on src, given src's max as
// ScoreKeys returns it, into dst and then in place, and requires the row to
// equal want, ExpNormalize's row, and the total, lo and hi to equal
// refWeighted's on want, bit for bit (any two NaNs equal). dst must be as
// long as src and must not overlap it.
func checkWeighted(t *testing.T, src, dst, want []float32, w []float64) {
	t.Helper()
	wantTotal, wantLo, wantHi := refWeighted(want, w)
	var maxv float32
	if len(src) > 0 {
		maxv = rowMax(src)
	}
	in := append([]float32(nil), src...)
	for _, out := range [][]float32{dst, in} {
		total, lo, hi := ExpNormalizeWeighted(out, in, maxv, w)
		for i := range out {
			if !sameBits32(out[i], want[i]) {
				t.Fatalf("ExpNormalizeWeighted of %d (src[%d] = %v) wrote %v, want %v", len(src), i, src[i], out[i], want[i])
			}
		}
		if !sameBits64(total, wantTotal) || !sameBits32(lo, wantLo) || !sameBits32(hi, wantHi) {
			t.Fatalf("ExpNormalizeWeighted of %d (src[:4] %v) = %v, %v, %v; want %v, %v, %v", len(src), src[:min(4, len(src))], total, lo, hi, wantTotal, wantLo, wantHi)
		}
	}
}

// TestExpNormalizeMatchesMathExp compares ExpNormalize with
// float32(math.Exp(float64(x))) bit for bit on every 64th float32 in
// [-104, -0] (17.5M values; a one-off sweep of all 1,120,927,745 found no
// mismatch either). Each batch leads with 0, so its max is 0 and x - max is
// x. ExpNormalizeWeighted must write the same rows and return WiCSum's
// total, min and max of them (checkWeighted). Exp32, which subtracts
// nothing, is compared the same way on every 64th float32 in [+0, 89]
// (17.5M values), across expFastMax; one-off sweeps found expFast with its
// window exact on every float32 in [2^-20, 88] and in (-2^-20, 2^-20).
// It also requires expFast's largest relative error over the whole fast
// range, [expFastMin, expFastMax], to stay 8x inside the fallback window,
// and some inputs to fall back near a midpoint.
func TestExpNormalizeMatchesMathExp(t *testing.T) {
	const lo, hi, stride = 0x80000000, 0xC2D00000, 64 // -0 and -104
	const batch = 4096
	src := make([]float32, 1, batch+1)
	dst := make([]float32, batch+1)
	wdst := make([]float32, batch+1)
	w := weights(NewRNG(44), batch+1)
	var maxRel float64
	var values, windowed int
	// expErr folds expFast's error at x into maxRel and windowed.
	expErr := func(x float32, want float64) {
		if xd := float64(x); xd >= expFastMin && xd <= expFastMax {
			e := expFast(xd)
			maxRel = max(maxRel, math.Abs(e-want)/want)
			if nearMidpoint(e) {
				windowed++
			}
		}
	}
	check := func() {
		ExpNormalize(dst[:len(src)], src)
		checkWeighted(t, src, wdst[:len(src)], dst[:len(src)], w[:len(src)])
		for k, x := range src[1:] {
			want := math.Exp(float64(x))
			if got := dst[k+1]; math.Float32bits(got) != math.Float32bits(float32(want)) {
				t.Fatalf("ExpNormalize at x=%v (%#08x): %v, want %v", x, math.Float32bits(x), got, float32(want))
			}
			expErr(x, want)
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
	// The positive side, through Exp32.
	const plo, phi = 0, 0x42B20000 // +0 and 89
	pos := 0
	src = src[:0]
	checkExp := func() {
		Exp32(dst[:len(src)], src)
		for k, x := range src {
			want := math.Exp(float64(x))
			if got := dst[k]; math.Float32bits(got) != math.Float32bits(float32(want)) {
				t.Fatalf("Exp32 at x=%v (%#08x): %v, want %v", x, math.Float32bits(x), got, float32(want))
			}
			expErr(x, want)
		}
		pos += len(src)
		src = src[:0]
	}
	for b := uint64(plo); b <= phi; b += stride {
		if src = append(src, math.Float32frombits(uint32(b))); len(src) == batch {
			checkExp()
		}
	}
	checkExp()
	if pos != (phi-plo)/stride+1 {
		t.Fatalf("swept %d positive values, want %d", pos, (phi-plo)/stride+1)
	}
	// The window is expWindow ulps; an ulp is at least 2^-53 of the value.
	if window := expWindow * 0x1p-53; maxRel*8 > window {
		t.Errorf("expFast's largest relative error %.3g (2^%.1f) is not 8x inside the window %.3g", maxRel, math.Log2(maxRel), window)
	}
	if windowed == 0 {
		t.Error("no swept input fell back near a float32 rounding midpoint")
	}
	t.Logf("%d values at or below 0 and %d above, expFast max relative error %.3g (2^%.1f), %d near a midpoint", values, pos, maxRel, math.Log2(maxRel), windowed)
}

// TestExpNormalizeSpecials covers -0 and x = 0, x next to 0, the fast
// range's lower edge and the float32 just outside it, and NaN and ±Inf in
// the source row, including as its first element and as its max. Each row
// also runs through ExpNormalizeWeighted (checkWeighted), at several
// weights. Exp32 takes the same values and the upper edge, expFastMax = 88,
// with the float32s around it and the largest finite results.
func TestExpNormalizeSpecials(t *testing.T) {
	rng := NewRNG(45)
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
		// In place, as the retrieval policies call it.
		in := append([]float32(nil), src...)
		ExpNormalize(in, in)
		for i := range src {
			if !sameBits32(in[i], want[i]) {
				t.Errorf("in-place ExpNormalize(%v)[%d] = %v, want %v", src, i, in[i], want[i])
			}
		}
		for rep := 0; rep < 4; rep++ {
			checkWeighted(t, src, make([]float32, len(src)), want, weights(rng, len(src)))
		}
	}
	checkWeighted(t, nil, nil, nil, nil)

	src := []float32{0, negZero, 0x1p-20, -0x1p-20, 0x1p-30, -0x1p-30, 1e-45, -1e-45, 88, math.Nextafter32(88, 0), math.Nextafter32(88, 100),
		88.72, 88.73, 89, 100, -87, math.Nextafter32(-87, -100), -104, nan, inf, -inf}
	got := make([]float32, len(src))
	Exp32(got, src)
	for i, x := range src {
		if want := float32(math.Exp(float64(x))); !sameBits32(got[i], want) {
			t.Errorf("Exp32 at x=%v: %v, want %v", x, got[i], want)
		}
	}
	Exp32(nil, nil)
}

// TestExpRowKernelMatchesExpFast pins expRowKernel's float64 exponentials to
// expFast bit for bit in both lanes of a pass, which Softmax's error bound
// relies on, on every 256th float32 in [-104, -0] and in [+0, 89], and on
// values outside the fast range [-87, 88] and at its edges. A row [x] gives
// lane 0's e as the sum. A row [y, x] with the sum starting at -expFast(y)
// gives lane 1's: the sum is 0 after lane 0 and then exactly e. The kernel
// must stop before x exactly when x falls back, and write nothing there.
// At x = ±0 it must write 1 and add exactly 1 to the sum, in both lanes.
func TestExpRowKernelMatchesExpFast(t *testing.T) {
	const lo, hi, stride = 0x80000000, 0xC2D00000, 256 // -0 and -104
	const plo, phi = 0, 0x42B20000                     // +0 and 89
	const y = -1
	ey := expFast(y)
	if nearMidpoint(ey) {
		t.Fatalf("lane-0 element %v falls back", y)
	}
	if expFast(0) != 1 || expFast(math.Copysign(0, -1)) != 1 {
		t.Fatalf("expFast(±0) = %v, %v; want 1", expFast(0), expFast(math.Copysign(0, -1)))
	}
	src, dst := make([]float32, 2), make([]float32, 2)
	check := func(x float32) {
		xd := float64(x)
		fast := xd >= expFastMin && xd <= expFastMax && !nearMidpoint(expFast(xd))
		var want float64
		if fast {
			want = expFast(xd)
		}
		// Lane 0.
		src[0], dst[0] = x, canary32
		n, s := expRowKernel(dst[:1], src[:1], 0, 0)
		if fast && (n != 1 || math.Float64bits(s) != math.Float64bits(want) || dst[0] != float32(want)) {
			t.Fatalf("lane 0, x=%v: kernel wrote %d, sum %v, dst %v; want 1, %v, %v", x, n, s, dst[0], want, float32(want))
		}
		if !fast && (n != 0 || s != 0 || dst[0] != canary32) {
			t.Fatalf("lane 0, x=%v: kernel wrote %d, sum %v, dst %v; want it to stop at once", x, n, s, dst[0])
		}
		// Lane 1, behind y.
		src[0], src[1], dst[1] = y, x, canary32
		n, s = expRowKernel(dst, src, 0, -ey)
		wantN := 1
		if fast {
			wantN = 2
		}
		if n != wantN || math.Float64bits(s) != math.Float64bits(want) || dst[0] != float32(ey) {
			t.Fatalf("lane 1, x=%v: kernel wrote %d, sum %v; want %d, %v", x, n, s, wantN, want)
		}
		if fast && dst[1] != float32(want) || !fast && dst[1] != canary32 {
			t.Fatalf("lane 1, x=%v: dst %v, fast path %v", x, dst[1], fast)
		}
	}
	for b := uint64(lo); b <= hi; b += stride {
		check(math.Float32frombits(uint32(b)))
	}
	for b := uint64(plo); b <= phi; b += stride {
		check(math.Float32frombits(uint32(b)))
	}
	for _, x := range []float32{0, float32(math.Copysign(0, -1)), -0x1p-20, -0x1p-21, 0x1p-20, 0x1p-21, -87, math.Nextafter32(-87, -100),
		88, math.Nextafter32(88, 0), math.Nextafter32(88, 100), -1e30, 1, 1e30,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())} {
		check(x)
	}
}

// refSoftmax is Softmax's contract: the math.Exp loop, with the max taken
// as Softmax takes it.
func refSoftmax(src []float32) []float32 {
	dst := make([]float32, len(src))
	if len(src) == 0 {
		return dst
	}
	maxv := src[0]
	for _, v := range src[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range src {
		e := math.Exp(float64(v - maxv))
		dst[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range dst {
		dst[i] *= inv
	}
	return dst
}

// checkSoftmax runs Softmax on src into a fresh dst and in place, and
// requires both to match refSoftmax bit for bit (any two NaNs equal).
func checkSoftmax(t *testing.T, what string, src []float32) {
	t.Helper()
	want := refSoftmax(src)
	got := make([]float32, len(src))
	Softmax(got, src, rowMax(src))
	in := append([]float32(nil), src...)
	Softmax(in, in, rowMax(in))
	for i := range src {
		if !sameBits32(got[i], want[i]) {
			t.Fatalf("%s: Softmax[%d] of %d = %v, want %v", what, i, len(src), got[i], want[i])
		}
		if !sameBits32(in[i], want[i]) {
			t.Fatalf("%s: in-place Softmax[%d] of %d = %v, want %v", what, i, len(src), in[i], want[i])
		}
	}
}

// TestSoftmaxMatchesMathExp compares Softmax with the math.Exp loop bit for
// bit: on random rows of every length to 70 and longer ones past
// softmaxTableMax, at several score scales; on rows whose table-exp 1/sum
// lies inside the fallback window, where the math.Exp sum must be the one
// used; on rows holding NaN, ±Inf or -0; and on one-element rows. Each row
// also runs in place.
func TestSoftmaxMatchesMathExp(t *testing.T) {
	rng := NewRNG(41)
	lengths := []int{100, 250, 268, 511, 1000, softmaxTableMax - 1, softmaxTableMax, softmaxTableMax + 1, 3000}
	for n := 1; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	rows, windowed := 0, 0
	for _, n := range lengths {
		for _, scale := range []float32{0.01, 0.5, 2, 8, 40} {
			src := make([]float32, n)
			for rep := 0; rep < 4; rep++ {
				for i := range src {
					src[i] = rng.Norm32() * scale
				}
				checkSoftmax(t, fmt.Sprintf("scale %v", scale), src)
				if n <= softmaxTableMax && nearMidpoint(1/expRow(make([]float32, n), src, rowMax(src))) {
					windowed++
				}
				rows++
			}
		}
	}
	t.Logf("%d random rows, %d with the table 1/sum inside the window", rows, windowed)

	// Rows [0, x] whose table-exp 1/sum lands inside the window: Softmax
	// must divide by the math.Exp sum, and at least one such row's table
	// sum must differ from it, so that the check can tell the two apart.
	found, differ := 0, 0
	src, buf := make([]float32, 2), make([]float32, 2)
	for b := math.Float32bits(-0.5); found < 50 && b < math.Float32bits(-2); b++ {
		src[0], src[1] = 0, math.Float32frombits(b)
		tableSum := expRow(buf, src, 0)
		if !nearMidpoint(1 / tableSum) {
			continue
		}
		found++
		exact := math.Exp(0) + math.Exp(float64(src[1]))
		if got := softmaxSum(tableSum, src, 0); math.Float64bits(got) != math.Float64bits(exact) {
			t.Fatalf("row %v: softmaxSum %v with the table 1/sum in the window, want the math.Exp sum %v", src, got, exact)
		}
		if tableSum != exact {
			differ++
		}
		checkSoftmax(t, "window row", src)
	}
	if found == 0 || differ == 0 {
		t.Fatalf("%d window rows found, %d with a table sum off the math.Exp sum", found, differ)
	}
	t.Logf("%d window rows, %d with a table sum off the math.Exp sum", found, differ)
	// A sum below 1, NaN or +Inf also takes the math.Exp sum; a good one is
	// kept.
	src = []float32{0, -1}
	exact := math.Exp(0) + math.Exp(-1)
	for _, bad := range []float64{0.5, math.NaN(), math.Inf(1)} {
		if got := softmaxSum(bad, src, 0); got != exact {
			t.Errorf("softmaxSum(%v) = %v, want the math.Exp sum %v", bad, got, exact)
		}
	}
	if got := softmaxSum(1.25, src, 0); got != 1.25 {
		t.Errorf("softmaxSum(1.25) = %v, want it kept", got)
	}

	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	for _, src := range [][]float32{
		{1, nan, 2, -3}, {nan, 1, 2}, {1, 2, nan}, {1, inf, 2, -inf}, {-inf, 1, -inf}, {-inf, -inf},
		{inf, inf, nan}, {inf, 1}, {0, negZero, -1}, {negZero, 0}, {negZero, negZero, -100},
		{3.5}, {negZero}, {0}, {nan}, {inf}, {-inf}, {-1e30}, {1e30},
	} {
		checkSoftmax(t, "special row", src)
	}
}

// TestExpKernelFallbackLanes runs ExpNormalize, ExpNormalizeWeighted and
// Softmax on every pattern
// of fast and fallback elements in rows of 1 to 9 elements, so fallbacks
// sit in lane 0 or lane 1 of a pass, back to back, and last in odd and even
// rows. A fallback element is the row max (x = 0), a near tie with it, or
// far below it (x < expFastMin); each row has a NaN variant too. The rows
// start at offsets 0-3 from an allocation, and nothing past dst may be
// written.
func TestExpKernelFallbackLanes(t *testing.T) {
	rng := NewRNG(43)
	const top = 3
	fallbacks := []float32{top, top - 0x1p-22, top - 100}
	for n := 1; n <= 9; n++ {
		for mask := 0; mask < 1<<n; mask++ {
			for off := 0; off < 4; off++ {
				src, _ := offsetSlice(n, off, canary32)
				for i := range src {
					src[i] = top - 0.01 - 20*rng.Float32()
					if mask&(1<<i) != 0 {
						src[i] = fallbacks[rng.Intn(len(fallbacks))]
					}
				}
				if rng.Float64() < 0.1 {
					src[rng.Intn(n)] = float32(math.NaN())
				}
				wantExp := refExpNormalize(src)
				dst, guard := offsetSlice(n, (off+1)%4, canary32)
				ExpNormalize(dst, src)
				for i := range src {
					if !sameBits32(dst[i], wantExp[i]) {
						t.Fatalf("ExpNormalize(%v)[%d] = %v, want %v", src, i, dst[i], wantExp[i])
					}
				}
				if *guard != canary32 {
					t.Fatalf("ExpNormalize(%v) wrote past dst", src)
				}
				wdst, wguard := offsetSlice(n, (off+2)%4, canary32)
				checkWeighted(t, src, wdst, wantExp, weights(rng, n))
				if *wguard != canary32 {
					t.Fatalf("ExpNormalizeWeighted(%v) wrote past dst", src)
				}
				want := refSoftmax(src)
				Softmax(dst, src, rowMax(src))
				for i := range src {
					if !sameBits32(dst[i], want[i]) {
						t.Fatalf("Softmax(%v)[%d] = %v, want %v", src, i, dst[i], want[i])
					}
				}
				if *guard != canary32 {
					t.Fatalf("Softmax(%v) wrote past dst", src)
				}
				// In place, as SelectTokens calls it.
				ExpNormalize(src, src)
				for i := range src {
					if !sameBits32(src[i], wantExp[i]) {
						t.Fatalf("in-place ExpNormalize[%d] of %d = %v, want %v", i, n, src[i], wantExp[i])
					}
				}
			}
		}
	}
}
