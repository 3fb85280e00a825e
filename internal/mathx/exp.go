package mathx

import "math"

// ExpNormalize writes exp(src[i]-max(src)) into dst without the final
// normalisation. The result is the softmax numerator: a positive "mass" that
// WiCSum thresholding accumulates. dst may alias src.
//
// Each element is float32(math.Exp(float64(x))) for x = src[i]-max(src), bit
// for bit, but most take a cheaper route: for x in [expFastMin, expFastMax]
// expFast returns exp(x) in float64 with a relative error below 2^-42, and
// its float32 rounding is kept unless it lies within expWindow float64 ulps
// of a float32 rounding midpoint. Outside that window math.Exp (error below
// one ulp) rounds to the same float32. For x = ±0, the row maximum's own
// element, expFast returns exactly 1, as math.Exp does. NaN, every x
// outside the range and every result near a midpoint take math.Exp itself.
func ExpNormalize(dst, src []float32) {
	if len(dst) != len(src) {
		panic("mathx: ExpNormalize length mismatch")
	}
	if len(src) == 0 {
		return
	}
	expRow(dst, src, rowMax(src))
}

// ExpNormalizeWeighted writes ExpNormalize's dst for a row whose maximum is
// maxv, as ScoreKeys returns it: dst[i] = float32(math.Exp(float64(src[i] -
// maxv))), bit for bit, through the same kernel. dst may alias src; w must
// be as long as src. As it writes the row it reduces it the way WiCSum's
// preprocess step does: total is the sum of float64(float64(dst[i]) * w[i])
// in index order, and lo and hi are the smallest and largest dst[i] folded
// from dst[0] with < and >, so a NaN dst[0] makes both NaN and a later NaN
// is skipped. An empty row returns 0, +Inf and -Inf. With integer weights
// below 2^29 each product is exact.
//
//vrex:noalloc
func ExpNormalizeWeighted(dst, src []float32, maxv float32, w []float64) (total float64, lo, hi float32) {
	if len(dst) != len(src) || len(w) != len(src) {
		panic("mathx: ExpNormalizeWeighted length mismatch")
	}
	return expRowWeighted(dst, src, w, maxv)
}

// Exp32 writes float32(math.Exp(float64(src[i]))) into dst, bit for bit,
// through ExpNormalize's kernel with nothing subtracted (x - 0 is x, -0
// included): expFast takes every x in [expFastMin, expFastMax] whose result
// is not near a float32 rounding midpoint, and math.Exp the rest. dst may
// alias src; both must have the same length. tensor.SiLU takes its
// exponentials from it.
//
//vrex:noalloc
func Exp32(dst, src []float32) {
	if len(dst) != len(src) {
		panic("mathx: Exp32 length mismatch")
	}
	expRow(dst, src, 0)
}

// softmaxTableMax is the longest row whose table-exp sum Softmax can keep.
const softmaxTableMax = 2048

// Softmax writes the softmax of src into dst in the numerically stable
// max-subtraction form: dst[i] = float32(e_i) * float32(1/sum), where e_i =
// math.Exp(float64(src[i]-maxv)) and sum adds the e_i in index order. maxv
// is the row's maximum as ScoreKeys returns it (the value model.attention
// passes); Softmax subtracts whatever it is given. Both slices must have the
// same length; zero-length input is a no-op. dst may be src itself;
// otherwise the two must not overlap.
//
// Every output bit is that formula's, but most rows take a cheaper route.
// The numerators are ExpNormalize's, which equal float32(e_i). Of the sum
// only float32(1/sum) reaches the output, so Softmax keeps the sum of
// ExpNormalize's own float64 exponentials (expFast's, and math.Exp's where
// it falls back) unless its reciprocal lies within expWindow float64 ulps
// of a float32 rounding midpoint. For n <= softmaxTableMax elements the two
// sums differ by at most about 1.5*2^-41 of the sum: each expFast is within
// 2^-42 of math.Exp, and each sum's roundings add at most (n-1)*2^-53. That
// is under 6,200 float64 ulps of 1/sum, inside the 2^14-ulp window, so
// outside the window both reciprocals round to the same float32. A
// reciprocal inside it, and a sum below 1 or not finite (which NaN or
// infinite elements of src can cause), take the math.Exp sum, recomputed
// from src. Longer rows, whose
// summation error grows with n, and a dst that is src itself, whose
// exponentials overwrite src before such a recomputation could read it,
// run the math.Exp loop throughout.
func Softmax(dst, src []float32, maxv float32) {
	if len(dst) != len(src) {
		panic("mathx: Softmax length mismatch")
	}
	if len(src) == 0 {
		return
	}
	var sum float64
	if len(src) <= softmaxTableMax && &dst[0] != &src[0] {
		sum = softmaxSum(expRow(dst, src, maxv), src, maxv)
	} else {
		for i, v := range src {
			e := math.Exp(float64(v - maxv))
			dst[i] = float32(e)
			sum += e
		}
	}
	inv := float32(1 / sum)
	for i := range dst {
		dst[i] *= inv
	}
}

// softmaxSum returns the sum Softmax divides by, given tableSum, the sum
// expRow returned for src and maxv: tableSum itself when float32(1/tableSum)
// must equal float32(1/s) for s the math.Exp sum (see Softmax), else s.
func softmaxSum(tableSum float64, src []float32, maxv float32) float64 {
	if tableSum >= 1 && tableSum <= math.MaxFloat64 && !nearMidpoint(1/tableSum) {
		return tableSum
	}
	var sum float64
	for _, v := range src {
		sum += math.Exp(float64(v - maxv))
	}
	return sum
}

// rowMax returns the largest element of a non-empty row, as ExpNormalize
// subtracts it and ScoreKeys returns it: NaN elements after the first are
// skipped, and a NaN first element is the result.
func rowMax(src []float32) float32 {
	maxv := src[0]
	for _, v := range src[1:] {
		if v > maxv {
			maxv = v
		}
	}
	return maxv
}

// expRow writes ExpNormalize's float32(exp(x)) for x = float64(src[i]-maxv)
// into dst, which must be as long as src and may be src itself, and returns
// the float64 sum of the exponentials it rounded, in index order: expFast's
// where expRowKernel takes the element, math.Exp's where it stops. On amd64
// the kernel is SSE2 assembly (kernels_amd64.s); elsewhere it is Go
// (kernels_generic.go).
//
//vrex:noalloc
func expRow(dst, src []float32, maxv float32) float64 {
	var sum float64
	for i := 0; i < len(src); i++ {
		n, s := expRowKernel(dst[i:], src[i:], maxv, sum)
		i, sum = i+n, s
		if i == len(src) {
			break
		}
		e := math.Exp(float64(src[i] - maxv))
		dst[i] = float32(e)
		sum += e
	}
	return sum
}

// expRowWeighted is ExpNormalizeWeighted after its length check: expRow's
// loop over expRowWeightedKernel, whose running total, lo and hi the
// math.Exp elements fold into in index order. Both folds start from +Inf
// and -Inf, which skips a NaN dst[0] too; it is then the result.
//
//vrex:noalloc
func expRowWeighted(dst, src []float32, w []float64, maxv float32) (total float64, lo, hi float32) {
	lo, hi = float32(math.Inf(1)), float32(math.Inf(-1))
	for i := 0; i < len(src); i++ {
		var n int
		n, total, lo, hi = expRowWeightedKernel(dst[i:], src[i:], w[i:], maxv, total, lo, hi)
		if i += n; i == len(src) {
			break
		}
		v := float32(math.Exp(float64(src[i] - maxv)))
		dst[i] = v
		total += float64(float64(v) * w[i])
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if len(dst) > 0 && math.IsNaN(float64(dst[0])) {
		lo, hi = dst[0], dst[0]
	}
	return total, lo, hi
}

const (
	// expFastMin and expFastMax bound expFast's inputs. exp(-87) is above
	// the smallest normal float32 and exp(88) below the largest, so every
	// result rounds on the normal float32 grid. One-off sweeps found expFast
	// with its midpoint window exact on every float32 in the range, 0 and
	// the inputs nearer to it included (EXPERIMENTS.md);
	// TestExpNormalizeMatchesMathExp sweeps every 64th.
	expFastMin = -87
	expFastMax = 88
	// expDropBits is the number of low float64 fraction bits that float32
	// rounding drops (52 - 23). A float32 rounding midpoint has exactly the
	// top one of them set.
	expDropBits = 52 - 23
	expMid      = 1 << (expDropBits - 1)
	// expWindow is the fallback half-width around a midpoint, in float64
	// ulps: 2^14 ulps is at least 2^-39 relative, over 8x expFast's error.
	expWindow = 1 << 14

	expTableBits = 8
	expN         = 1 << expTableBits
	expInvLn2N   = expN / math.Ln2
	// expLn2HiN + expLn2LoN is ln2/256; the high part keeps 36 significant
	// bits, so its product with any |n| < 2^17 is exact.
	expLn2HiN = 0x1.62e42fefa0000p-9
	expLn2LoN = math.Ln2/expN - expLn2HiN
	// expShift rounds a float64 below 2^51 in magnitude to an integer held
	// in its low fraction bits.
	expShift = 0x1.8p52
)

// expTable[j] holds the bits of 2^(j/256) less j<<44, so that adding n<<44
// for n = 256m + j gives the bits of 2^(m + j/256).
var expTable = func() (t [expN]uint64) {
	for j := range t {
		t[j] = math.Float64bits(math.Exp2(float64(j)/expN)) - uint64(j)<<(52-expTableBits)
	}
	return t
}()

// nearMidpoint reports whether e lies within expWindow float64 ulps of a
// float32 rounding midpoint.
func nearMidpoint(e float64) bool {
	return (math.Float64bits(e)-(expMid-expWindow))&(1<<expDropBits-1) <= 2*expWindow
}

// expFast returns exp(x) for x in [expFastMin, expFastMax], and exactly 1
// for x = ±0: with n = round(x*256/ln2) and r = x - n*ln2/256, so
// |r| <= ln2/512, it is 2^(n/256) from the table times the cubic Taylor
// polynomial of exp(r), whose truncation error r^4/24 is below 1.4e-13
// (at ±0, n and r are 0 and every term is exact). Each product is converted
// explicitly, which rounds it and so keeps the compiler from fusing it with
// the add that follows into an FMA (arm64 would), the result too, which
// expRowKernel adds to its sum: every architecture computes amd64's bits.
func expFast(x float64) float64 {
	kd := float64(x*expInvLn2N) + expShift
	ki := math.Float64bits(kd)
	kd -= expShift
	r := x - float64(kd*expLn2HiN) - float64(kd*expLn2LoN)
	s := math.Float64frombits(expTable[ki%expN] + ki<<(52-expTableBits))
	r2 := r * r
	return float64(s * (1 + r + float64(r2*(0.5+float64(r*(1.0/6))))))
}
