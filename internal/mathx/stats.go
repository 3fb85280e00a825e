package mathx

import (
	"math"
	"math/bits"
	"slices"
)

// Dot returns the dot product of a and b, accumulated in float64 for
// stability. The slices must have equal length.
func Dot(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("mathx: Dot length mismatch")
	}
	// Four independent accumulators break the loop-carried add dependency
	// (the hot path: attention scores and ReSV cluster scoring).
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

// ScoreKeys scores one query against len(dst) keys packed row-major in keys,
// len(q) values each: dst[j] = float32(q·key_j) * scale. The caller widens
// q and keys from float32 to float64 once, so no product converts an
// operand. Each dot product keeps Dot's four accumulators, its s0+s1+s2+s3
// reduction and its tail, so dst[j] is bit-identical to float32(Dot(q,
// key_j)) * scale on the float32 originals. len(keys) must equal
// len(dst)*len(q).
//
// It returns the row's maximum as Softmax and ExpNormalizeWeighted subtract
// it: dst[0], then each later score above the running maximum. A NaN after
// the first score is skipped, a NaN first score is the result, and of tied
// zeros the earlier one is kept. An empty row returns -Inf.
//
// On amd64 the loop is SSE2 assembly (kernels_amd64.s); elsewhere it is Go
// (kernels_generic.go). Both perform the same roundings in the same order,
// and both fold each score into the maximum as they store it.
//
//vrex:noalloc
func ScoreKeys(dst []float32, q, keys []float64, scale float32) float32 {
	if len(keys) != len(dst)*len(q) {
		panic("mathx: ScoreKeys length mismatch")
	}
	maxv := scoreKeysKernel(dst, q, keys, scale)
	// The kernels fold from -Inf, which skips a NaN first score too.
	if len(dst) > 0 && math.IsNaN(float64(dst[0])) {
		return dst[0]
	}
	return maxv
}

// Widen writes src's values, converted to float64, into dst[:len(src)].
// The conversion is exact.
//
//vrex:noalloc
func Widen(dst []float64, src []float32) {
	widenKernel(dst[:len(src)], src)
}

// CosineSimilarity returns the cosine of the angle between a and b, or 0 if
// either vector is zero.
func CosineSimilarity(a, b []float32) float64 {
	dot := Dot(a, b)
	na := math.Sqrt(Dot(a, a))
	nb := math.Sqrt(Dot(b, b))
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (na * nb)
}

// PearsonCorrelation returns the Pearson correlation coefficient of the two
// samples, or 0 if either sample has zero variance. The slices must have
// equal, non-zero length.
func PearsonCorrelation(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("mathx: PearsonCorrelation length mismatch")
	}
	n := float64(len(xs))
	if n == 0 {
		return 0
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += float64(dx * dy)
		vx += float64(dx * dx)
		vy += float64(dy * dy)
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Percentiles returns the p-th and q-th percentiles (0..100) of xs, in that
// order, using linear interpolation between closest ranks. NaNs rank below
// every number (the sort.Float64s order), so an interpolation that touches a
// NaN rank is NaN. A rank <= 0 or >= 100 returns an extreme, an empty xs
// returns 0 and a NaN rank returns NaN. p and q may come in either order. xs
// is not modified: Percentiles is PercentilesInPlace on a copy of xs.
func Percentiles(xs []float64, p, q float64) (float64, float64) {
	return PercentilesInPlace(slices.Clone(xs), p, q)
}

// PercentilesInPlace returns what Percentiles returns for xs, reordering xs
// instead of copying it: xs comes back a permutation of itself, its NaNs at
// the back. It selects only the ranks it interpolates between, in expected
// O(n) time; the higher rank is selected only among the values above the
// lower one.
//
//vrex:noalloc
func PercentilesInPlace(xs []float64, p, q float64) (float64, float64) {
	if q < p {
		vq, vp := PercentilesInPlace(xs, q, p)
		return vp, vq
	}
	if len(xs) == 0 {
		return 0, 0
	}
	// Everything in xs[n:i] is NaN, so each swap keeps the numbers in their
	// order: xs[:n] ends as the numbers a filtering copy would hold.
	n := 0
	for i, v := range xs {
		if !math.IsNaN(v) {
			xs[n], xs[i] = v, xs[n]
			n++
		}
	}
	c, nans := xs[:n], len(xs)-n
	vp, from := percentileFrom(c, nans, p, 0)
	vq, _ := percentileFrom(c, nans, q, from)
	return vp, vq
}

// percentileFrom returns the p-th percentile of c's values plus nans NaNs,
// where c holds no NaN and c[:from] holds, in order, values no larger than
// any in c[from:]. It selects within c[from:] only, and returns the index
// past the rank it placed, which a higher rank can start from.
func percentileFrom(c []float64, nans int, p float64, from int) (float64, int) {
	if math.IsNaN(p) {
		return math.NaN(), from
	}
	n := len(c) + nans
	var rank float64
	switch {
	case p <= 0:
	case p >= 100:
		rank = float64(n - 1)
	default:
		rank = p / 100 * float64(n-1)
	}
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	if lo < nans {
		return math.NaN(), from
	}
	k := lo - nans
	if k >= from {
		selectRank(c[from:], k-from)
	}
	if lo == hi {
		return c[k], k + 1
	}
	frac := rank - float64(lo)
	return float64(c[k]*(1-frac)) + float64(slices.Min(c[k+1:])*frac), k + 1
}

// selectRank reorders xs, which holds no NaN, so that xs[k] is its k-th
// smallest value, with nothing larger before it and nothing smaller after
// it. Three-way partitioning around a median-of-three pivot narrows the
// window holding rank k; once partitions stop shrinking the window (more
// than log2(n) of them keep over three quarters of it), the window is sorted
// instead, so the worst case stays O(n log n).
func selectRank(xs []float64, k int) {
	lo, hi := 0, len(xs)
	for budget := bits.Len(uint(len(xs))); hi-lo > 1; {
		n := hi - lo
		if n <= 12 || budget == 0 {
			slices.Sort(xs[lo:hi])
			return
		}
		a, b, c := xs[lo], xs[lo+n/2], xs[hi-1]
		pivot := max(min(a, b), min(max(a, b), c))
		// [lo, lt) < pivot, [lt, i) == pivot, [gt, hi) > pivot.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := xs[i]; {
			case v < pivot:
				xs[lt], xs[i] = v, xs[lt]
				lt++
				i++
			case v > pivot:
				gt--
				xs[i], xs[gt] = xs[gt], v
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return // xs[k] equals the pivot
		}
		if hi-lo > n*3/4 {
			budget--
		}
	}
}
