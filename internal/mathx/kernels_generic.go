//go:build !amd64

package mathx

import "math"

// The portable kernels: the only path on architectures without an
// assembly version. Each product is converted explicitly to its own type,
// which rounds it and so keeps the compiler from fusing it with the add
// that follows into one FMA instruction: every output has the roundings
// the SSE2 kernels give it.

// scoreKeysKernel is ScoreKeys after its length check. It returns the
// largest score, folding each into a running maximum from -Inf as it is
// stored: a score replaces the maximum only if it is greater, so NaNs are
// skipped and a tie keeps the earlier score.
//
//vrex:noalloc
func scoreKeysKernel(dst []float32, q, keys []float64, scale float32) float32 {
	n := len(q)
	maxv := float32(math.Inf(-1))
	// Two keys per pass share the loads of q; an odd last key is scored as
	// both of its pass's keys. Re-slicing each key to n lets the compiler
	// drop the bounds checks on the keys.
	for j := 0; j < len(dst); j += 2 {
		k0 := keys[j*n:][:n]
		k1 := k0
		if j+1 < len(dst) {
			k1 = keys[(j+1)*n:][:n]
		}
		var s0, s1, s2, s3, t0, t1, t2, t3 float64
		i := 0
		for ; i+4 <= n; i += 4 {
			x0, x1, x2, x3 := q[i], q[i+1], q[i+2], q[i+3]
			s0 += float64(x0 * k0[i])
			s1 += float64(x1 * k0[i+1])
			s2 += float64(x2 * k0[i+2])
			s3 += float64(x3 * k0[i+3])
			t0 += float64(x0 * k1[i])
			t1 += float64(x1 * k1[i+1])
			t2 += float64(x2 * k1[i+2])
			t3 += float64(x3 * k1[i+3])
		}
		s, t := s0+s1+s2+s3, t0+t1+t2+t3
		for ; i < n; i++ {
			s += float64(q[i] * k0[i])
			t += float64(q[i] * k1[i])
		}
		v := float32(s) * scale
		dst[j] = v
		if v > maxv {
			maxv = v
		}
		if j+1 < len(dst) {
			v = float32(t) * scale
			dst[j+1] = v
			if v > maxv {
				maxv = v
			}
		}
	}
	return maxv
}

// widenKernel is Widen with len(dst) == len(src).
//
//vrex:noalloc
func widenKernel(dst []float64, src []float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = float64(v)
	}
}

// expRowKernel is expRow's fast loop, with len(dst) >= len(src): from index
// 0 on it writes dst[i] = float32(e) for e = expFast(float64(src[i]-maxv))
// and adds e to sum in index order. It stops at the first element whose x
// lies outside [expFastMin, expFastMax] (NaN included), or whose e is
// nearMidpoint, leaving that element unwritten, and returns the
// number of elements written and the sum.
//
//vrex:noalloc
func expRowKernel(dst, src []float32, maxv float32, sum float64) (n int, s float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		e, ok := expFastAt(v, maxv)
		if !ok {
			return i, sum
		}
		dst[i] = float32(e)
		sum += e
	}
	return len(src), sum
}

// expRowWeightedKernel is expRowWeighted's fast loop, with len(dst) and
// len(w) >= len(src): it writes and stops where expRowKernel does, but adds
// float64(float64(dst[i]) * w[i]) to total in place of e, and folds each
// dst[i] into lo and hi with < and >. It returns the number of elements
// written and the running values.
//
//vrex:noalloc
func expRowWeightedKernel(dst, src []float32, w []float64, maxv float32, total float64, lo, hi float32) (n int, total1 float64, lo1, hi1 float32) {
	dst, w = dst[:len(src)], w[:len(src)]
	for i, v := range src {
		e, ok := expFastAt(v, maxv)
		if !ok {
			return i, total, lo, hi
		}
		f := float32(e)
		dst[i] = f
		total += float64(float64(f) * w[i])
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	return len(src), total, lo, hi
}

// expFastAt returns expFast(x) for x = float64(v-maxv), and whether the
// kernels take it: x is in [expFastMin, expFastMax], and the result is not
// nearMidpoint.
func expFastAt(v, maxv float32) (float64, bool) {
	x := float64(v - maxv)
	if !(x >= expFastMin && x <= expFastMax) {
		return 0, false
	}
	e := expFast(x)
	return e, !nearMidpoint(e)
}

// expMassBoundKernel is ExpMassBound's pass after its checks.
//
//vrex:noalloc
func expMassBoundKernel(src []float32, maxv float32, w []float64, flagged []int) (total float64, smin float32, n int, ok bool) {
	return expMassBoundGo(src, maxv, w, flagged)
}
