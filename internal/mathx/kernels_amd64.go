package mathx

// The SSE2 kernels in kernels_amd64.s. SSE2 is part of every amd64 CPU, so
// there is no feature detection and no other amd64 path. The assembly does
// no bounds checks: the exported wrappers check the lengths first.

// scoreKeysKernel is ScoreKeys after its length check. The accumulator
// pairs (s0,s1) and (s2,s3) of each key share one register each (MULPD,
// ADDPD), one pass scores two keys, and the reduction, the tail and the
// float32 rounding and scale run in scalar code in Go's order. There is no
// FMA, so every rounding is Go's.
//
//go:noescape
func scoreKeysKernel(dst []float32, q, keys []float64, scale float32)

// widenKernel is Widen with len(dst) == len(src) (CVTPS2PD).
//
//go:noescape
func widenKernel(dst []float64, src []float32)
