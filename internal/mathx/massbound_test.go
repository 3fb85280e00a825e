package mathx

import (
	"math"
	"slices"
	"testing"
)

// checkMassKernel runs expMassBoundKernel and expMassBoundGo on src and
// requires the same verdict and, for a row in range, the same total and
// smallest score bit for bit and the same flagged indices. It returns the
// verdict.
func checkMassKernel(t *testing.T, src []float32, maxv float32, w []float64) bool {
	t.Helper()
	fa, fg := make([]int, len(src)), make([]int, len(src))
	ta, ma, na, oka := expMassBoundKernel(src, maxv, w, fa)
	tg, mg, ng, okg := expMassBoundGo(src, maxv, w, fg)
	if oka != okg {
		t.Fatalf("row %v (maxv %v): kernel ok %v, Go loop ok %v", src[:min(8, len(src))], maxv, oka, okg)
	}
	if !oka {
		return false
	}
	if !sameBits64(ta, tg) || !sameBits32(ma, mg) || !slices.Equal(fa[:na], fg[:ng]) {
		t.Fatalf("row of %d (maxv %v): kernel %v, %v, flags %v; Go loop %v, %v, flags %v", len(src), maxv, ta, ma, fa[:na], tg, mg, fg[:ng])
	}
	return true
}

// TestExpMassBoundMatchesGo requires the bounded pass's SSE2 kernel to equal
// its Go loop bit for bit (total, smallest score and flags) on random rows
// of every length from 0 to 40, so every one-lane tail of 1-3 scores
// follows 0-10 four-lane passes, and of 268 and 1000 scores, at several
// scales, with past-token counts as weights; the rows hold ±0 and exact
// ties. ExpMassBound's results must follow from them: flags
// exactly the x >= MassCut, in order, smin the smallest score and the
// bracket around the exact path's total. A row holding NaN, -Inf or an x
// below massMin must report !ok from both, wherever it sits, and so must
// an x above 0 (a maxv below the row's maximum).
func TestExpMassBoundMatchesGo(t *testing.T) {
	rng := NewRNG(51)
	lengths := []int{268, 1000}
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	negZero := float32(math.Copysign(0, -1))
	for _, n := range lengths {
		for _, scale := range []float32{0.01, 1, 2, 8, 20} {
			for rep := 0; rep < 6; rep++ {
				src := make([]float32, n)
				for i := range src {
					src[i] = rng.Norm32() * scale
					switch rng.Intn(16) {
					case 0:
						src[i] = 0
					case 1:
						src[i] = negZero
					case 2:
						if i > 0 {
							src[i] = src[i-1]
						}
					}
				}
				w := weights(rng, n)
				var maxv float32
				if n > 0 {
					maxv = rowMax(src)
				}
				wantOK := true
				for _, v := range src {
					wantOK = wantOK && v-maxv >= massMin
				}
				if ok := checkMassKernel(t, src, maxv, w); ok != wantOK {
					t.Fatalf("row of %d at scale %v: ok %v, want %v", n, scale, ok, wantOK)
				}
				lo, hi, smin, flagged, ok2 := ExpMassBound(src, maxv, w, nil)
				if ok2 != wantOK {
					t.Fatalf("ExpMassBound ok %v, want %v", ok2, wantOK)
				}
				if !ok2 {
					continue
				}
				var want []int
				wantMin := float32(math.Inf(1))
				for i, v := range src {
					if v-maxv >= MassCut {
						want = append(want, i)
					}
					wantMin = min(wantMin, v)
				}
				if !slices.Equal(flagged, want) || smin != wantMin {
					t.Fatalf("row of %d: flagged %v, smin %v; want %v, %v", n, flagged, smin, want, wantMin)
				}
				mass := make([]float32, n)
				ExpNormalize(mass, src, maxv)
				if total := weightedTotal(mass, w); !(lo <= total && total <= hi) {
					t.Fatalf("row of %d: exact total %v outside [%v, %v]", n, total, lo, hi)
				}
			}
		}
	}
	// Rows that must report !ok: one bad score at each position of rows
	// long enough for every lane of a four-lane pass and the tail.
	bad := []float32{float32(math.NaN()), float32(math.Inf(-1)), math.Nextafter32(massMin, -100), -1000, 0.5}
	for n := 1; n <= 11; n++ {
		for at := 0; at < n; at++ {
			for _, b := range bad {
				src := make([]float32, n)
				for i := range src {
					src[i] = -rng.Float32()
				}
				src[at] = b
				if checkMassKernel(t, src, 0, weights(rng, n)) {
					t.Fatalf("row %v: ok, want a score out of range", src)
				}
				if _, _, _, f, ok := ExpMassBound(src, 0, weights(rng, n), nil); ok || len(f) != 0 {
					t.Fatalf("ExpMassBound(%v) ok %v, flagged %v", src, ok, f)
				}
			}
		}
	}
	// The range's edges are in it.
	if !checkMassKernel(t, []float32{0, negZero, massMin, MassCut, math.Nextafter32(MassCut, 0), math.Nextafter32(MassCut, -10)}, 0, []float64{1, 2, 3, 4, 5, 6}) {
		t.Fatal("a row from massMin to 0 reported out of range")
	}
}

// TestExpMassBoundError requires each approximate mass to stay within
// massEps of float32(math.Exp(float64(x))), relative, with a margin of 3,
// on every 64th float32 x in [massMin, -0] (17.5M values): a one-off sweep
// of all 1,118,633,985 found at most 2^-21.92, 3.8x inside massEps. The
// sweep runs in rows through the kernel and the Go loop, which must agree
// on each row (checkMassKernel).
func TestExpMassBoundError(t *testing.T) {
	const lo, stride = 0x80000000, 64 // -0
	hi := uint64(math.Float32bits(massMin))
	const batch = 4096
	rng := NewRNG(52)
	w := weights(rng, batch)
	src := make([]float32, 0, batch)
	var maxRel float64
	values := 0
	flush := func() {
		checkMassKernel(t, src, 0, w[:len(src)])
		values += len(src)
		src = src[:0]
	}
	for b := uint64(lo); b <= hi; b += stride {
		x := math.Float32frombits(uint32(b))
		want := float64(float32(math.Exp(float64(x))))
		got := float64(massApprox(x))
		maxRel = max(maxRel, math.Abs(got-want)/want)
		if src = append(src, x); len(src) == batch {
			flush()
		}
	}
	flush()
	if values != int((hi-lo)/stride+1) {
		t.Fatalf("swept %d values, want %d", values, (hi-lo)/stride+1)
	}
	if maxRel*3 > massEps {
		t.Errorf("largest relative error %.3g (2^%.2f) is not 3x inside massEps 2^%.0f", maxRel, math.Log2(maxRel), math.Log2(massEps))
	}
	t.Logf("%d values, largest relative error %.3g (2^%.2f)", values, maxRel, math.Log2(maxRel))
}

// TestExpMassMonotone requires the exact masses float32(math.Exp(float64(x)))
// never to rise as x falls, on every 64th float32 in [-104, -0], each
// against the float32 just below it (17.5M pairs; a one-off sweep of every
// float32 there found no rise either). With it the exact path's smallest
// mass is the smallest score's, and every score below MassCut has a mass of
// at most CutMass, which CutMass must equal.
func TestExpMassMonotone(t *testing.T) {
	const lo, hi, stride = 0x80000000, 0xC2D00000, 64 // -0 and -104
	mass := func(x float32) float32 { return float32(math.Exp(float64(x))) }
	pairs := 0
	for b := uint64(lo); b <= hi; b += stride {
		x := math.Float32frombits(uint32(b))
		below := math.Nextafter32(x, float32(math.Inf(-1)))
		if mass(below) > mass(x) {
			t.Fatalf("mass(%v) = %v is above mass(%v) = %v", below, mass(below), x, mass(x))
		}
		pairs++
	}
	if CutMass != mass(MassCut) {
		t.Fatalf("CutMass %v, want %v", CutMass, mass(MassCut))
	}
	t.Logf("%d pairs", pairs)
}
