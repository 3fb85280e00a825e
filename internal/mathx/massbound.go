package mathx

import "math"

// MassCut is the x = s - maxv at and above which ExpMassBound flags a
// score. CutMass is the mass ExpNormalize writes at x = MassCut,
// float32(math.Exp(-3)), about 0.0498.
//
// The masses m(x) = float32(math.Exp(float64(x))) never decrease as x
// rises (TestExpMassMonotone; a one-off sweep of every float32 in
// [-104, -0] found no exception), so every score ExpMassBound leaves out,
// whose x is below MassCut, has a mass of at most CutMass.
const MassCut float32 = -3

// CutMass is ExpNormalize's mass at x = MassCut,
// float32(math.Exp(-3)) (TestExpMassMonotone checks it).
const CutMass float32 = 0x1.97db0cp-05

const (
	// massEps bounds the relative error of each approximate mass against
	// float32(math.Exp(float64(x))) for x in [massMin, 0]. A one-off sweep
	// of every float32 there found at most 2^-21.92 (EXPERIMENTS.md), and
	// TestExpMassBoundError requires every 64th to stay 3x inside it.
	massEps = 0x1p-20
	// massMin is the bottom of the approximation's range: 2^n stays a
	// normal float32 for every n it takes there.
	massMin float32 = -86.5

	// The approximation's float32 constants: log2(e), ln 2 in two parts
	// (massLn2Hi has 9 significant bits, so n*massLn2Hi is exact for every
	// n in range; massLn2Lo is negative) and the Taylor coefficients of
	// exp(r) from r^6 down to r^2.
	massLog2e float32 = 1.44269504088896341
	massLn2Hi float32 = 0.693359375
	massLn2Lo float32 = -2.12194440e-4
	massP6    float32 = 1.0 / 720
	massP5    float32 = 1.0 / 120
	massP4    float32 = 1.0 / 24
	massP3    float32 = 1.0 / 6
	massP2    float32 = 0.5
)

// ExpMassBound is WiCSum's bounded pass over a score row whose maximum is
// maxv, as ScoreKeys returns it: one pass that brackets the row's weighted
// total without writing a mass. That total is the one WiCSum's preprocess
// step sums over the masses ExpNormalize(dst, src, maxv) writes: the
// float64(float64(dst[i]) * w[i]) added in index order. w must be as long
// as src, and the bracket's proof takes each weight to be 0 or at least
// 2^-880, as past-token counts are, so that no product of a mass (at least
// 2^-125 in range) and a weight underflows.
//
// For each score it takes exactly the exact path's x = src[i] - maxv (a
// float32 subtraction) and approximates float32(math.Exp(float64(x))) in
// float32: n = round(x*log2(e)), r = x - n*massLn2Hi - n*massLn2Lo (the
// Cody-Waite reduction), the degree-6 Taylor polynomial of exp(r) by
// Horner's rule, and 2^n added to the result's exponent bits. Each
// approximate mass a is within massEps of the exact m, relative.
//
// The products float64(a)*w[i] are added in two float64 lanes, even
// indices in one and odd in the other, then the lanes. Every term of that
// sum and of the exact total carries at most n roundings of 2^-53 relative
// (a product and n-1 additions, all of non-negative terms), so the two
// totals differ by at most (massEps + 2*n*2^-53 + second-order terms) of
// the exact one. lo and hi widen the approximate total by twice that,
// which also covers their own roundings: lo <= T <= hi for T the exact
// path's total, bit for bit as it sums. Any ratio r >= 0 then brackets the
// threshold, since rounding is monotone: float64(lo*r) <= float64(T*r) <=
// float64(hi*r).
//
// It also returns smin, the smallest score, and flagged: the indices i
// whose x is at least MassCut, appended in ascending order to flagged[:0],
// whose storage is reused when it holds len(src) indices. ok is false if
// some x is NaN or outside [massMin, 0]; lo, hi and smin are then
// meaningless and flagged is empty.
//
// On amd64 the pass is SSE2 assembly, four scores per pass
// (kernels_amd64.s); elsewhere it is expMassBoundGo, which performs the
// same roundings in the same order.
//
//vrex:noalloc
func ExpMassBound(src []float32, maxv float32, w []float64, flagged []int) (lo, hi float64, smin float32, flagged1 []int, ok bool) {
	if len(w) != len(src) {
		panic("mathx: ExpMassBound length mismatch")
	}
	if cap(flagged) < len(src) {
		flagged = make([]int, len(src))
	}
	total, smin, n, ok := expMassBoundKernel(src, maxv, w, flagged[:len(src)])
	if !ok {
		return 0, 0, smin, flagged[:0], false
	}
	spread := 2 * (massEps + float64(float64(len(src))*0x1p-52))
	return total * (1 - spread), total * (1 + spread), smin, flagged[:n], true
}

// expMassBoundGo is ExpMassBound's pass after its checks, with len(w) and
// len(flagged) >= len(src), in Go: the kernel on architectures without the
// SSE2 version, and its reference in the kernel tests. It mirrors the
// assembly's lanes: scores 4k+j fold into running minimum j (j = 0-3),
// folded as (0 with 2) with (1 with 3) at the end, and even products add
// into s0, odd ones into s1. The last len(src)%4 scores, as the assembly's
// one-lane passes, fold into minimum 0 and s0. Each fold is MINPS's
// (minps). It returns the total s0 + s1, the smallest score, the number of flagged
// indices written, and whether every x was in range; it stops at the first
// pass that holds one that is not.
//
//vrex:noalloc
func expMassBoundGo(src []float32, maxv float32, w []float64, flagged []int) (total float64, smin float32, n int, ok bool) {
	inf := float32(math.Inf(1))
	m := [4]float32{inf, inf, inf, inf}
	var s [2]float64
	i := 0
	for ; i+4 <= len(src); i += 4 {
		var x [4]float32
		for j := range x {
			m[j] = minps(m[j], src[i+j])
			x[j] = src[i+j] - maxv
			if !(x[j] >= massMin && x[j] <= 0) {
				return 0, 0, n, false
			}
		}
		for j := range x {
			flagged[n] = i + j
			if x[j] >= MassCut {
				n++
			}
		}
		for j := range x {
			s[j&1] += float64(float64(massApprox(x[j])) * w[i+j])
		}
	}
	for ; i < len(src); i++ {
		m[0] = minps(m[0], src[i])
		x := src[i] - maxv
		if !(x >= massMin && x <= 0) {
			return 0, 0, n, false
		}
		flagged[n] = i
		if x >= MassCut {
			n++
		}
		s[0] += float64(float64(massApprox(x)) * w[i])
	}
	return s[0] + s[1], minps(minps(m[0], m[2]), minps(m[1], m[3])), n, true
}

// minps is MINPS's lane operation: a if a < b, else b (so b if either is
// NaN, and b of two zeros).
func minps(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

// massApprox is ExpMassBound's float32 approximation of
// float32(math.Exp(float64(x))) for x in [massMin, 0]. Each product is
// converted explicitly, which keeps the compiler from fusing it with the
// add that follows (arm64 would), so every architecture rounds as SSE2
// does.
func massApprox(x float32) float32 {
	n := int32(math.RoundToEven(float64(float32(x * massLog2e))))
	nf := float32(n)
	r := x - float32(nf*massLn2Hi)
	r -= float32(nf * massLn2Lo)
	p := float32(massP6*r) + massP5
	p = float32(p*r) + massP4
	p = float32(p*r) + massP3
	p = float32(p*r) + massP2
	p = float32(p*r) + 1
	p = float32(p*r) + 1
	return math.Float32frombits(math.Float32bits(p) + uint32(n)<<23)
}
