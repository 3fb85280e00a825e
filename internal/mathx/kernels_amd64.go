package mathx

import "math"

// The SSE2 kernels in kernels_amd64.s. SSE2 is part of every amd64 CPU, so
// there is no feature detection and no other amd64 path. The assembly does
// no bounds checks: the exported wrappers check the lengths first.

// scoreKeysKernel is ScoreKeys after its length check. The accumulator
// pairs (s0,s1) and (s2,s3) of each key share one register each (MULPD,
// ADDPD), one pass scores two keys, and the reduction, the tail and the
// float32 rounding and scale run in scalar code in Go's order. There is no
// FMA, so every rounding is Go's. It returns the largest score: each stored
// score is folded by MAXSS into a running maximum that starts at -Inf,
// with the score as the destination operand, so a NaN score or a tie keeps
// the running maximum.
//
//go:noescape
func scoreKeysKernel(dst []float32, q, keys []float64, scale float32) float32

// widenKernel is Widen with len(dst) == len(src) (CVTPS2PD).
//
//go:noescape
func widenKernel(dst []float64, src []float32)

// expRowKernel is expRow's fast loop, with len(dst) >= len(src): from index
// 0 on it writes dst[i] = float32(e) for e = expFast(float64(src[i]-maxv))
// and adds e to sum in index order. It stops at the first element whose x
// lies outside [expFastMin, expFastMax] (NaN included), or whose e is
// nearMidpoint, leaving that element unwritten, and returns the
// number of elements written and the sum. One pass takes two elements, one
// per lane, through expFast's operations in its order; only the table loads
// and the lane checks' results leave the vector registers. There is no FMA,
// so every rounding is Go's.
//
//go:noescape
func expRowKernel(dst, src []float32, maxv float32, sum float64) (n int, s float64)

// expKernelConsts holds expRowKernel's packed operands, each in both lanes,
// at the byte offsets kernels_amd64.s loads them from: expFast's constants,
// the fast range, and nearMidpoint's bias, mask and bound (the bound as
// signed 32-bit lanes, -1 in the high half of each, for PCMPGTL).
var expKernelConsts = func() [24]uint64 {
	f := math.Float64bits
	bound := uint64(2*expWindow) | 0xffffffff<<32
	return [24]uint64{
		f(expInvLn2N), f(expInvLn2N), // 0
		f(expShift), f(expShift), // 16
		f(expLn2HiN), f(expLn2HiN), // 32
		f(expLn2LoN), f(expLn2LoN), // 48
		f(1.0 / 6), f(1.0 / 6), // 64
		f(0.5), f(0.5), // 80
		f(1), f(1), // 96
		f(expFastMin), f(expFastMin), // 112
		f(expFastMax), f(expFastMax), // 128
		expMid - expWindow, expMid - expWindow, // 144
		1<<expDropBits - 1, 1<<expDropBits - 1, // 160
		bound, bound, // 176
	}
}()

// expMassBoundKernel is expMassBoundGo in SSE2 assembly: four scores per
// pass, one float32 lane each, through massApprox's operations in its
// order; the flags by CMPPS and MOVMSKPS, each index stored and kept by
// adding its flag bit (BT, ADC); the minimum by MINPS; the products
// widened pairwise and added into two float64 lanes. The last len(src)%4
// scores take one-lane passes.
//
//go:noescape
func expMassBoundKernel(src []float32, maxv float32, w []float64, flagged []int) (total float64, smin float32, n int, ok bool)

// massKernelConsts holds expMassBoundKernel's float32 operands, each in all
// four lanes, at the byte offsets kernels_amd64.s loads them from.
var massKernelConsts = func() (c [44]uint32) {
	for i, v := range []float32{massLog2e, massLn2Hi, massLn2Lo, massP6, massP5, massP4, massP3, massP2, 1, MassCut, massMin} {
		for j := 0; j < 4; j++ {
			c[4*i+j] = math.Float32bits(v)
		}
	}
	return c
}()
