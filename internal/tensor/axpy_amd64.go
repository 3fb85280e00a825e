package tensor

// The SSE2 axpy kernels in axpy_amd64.s. SSE2 is part of every amd64 CPU, so
// there is no feature detection and no other amd64 path. A vector lane is
// one output column; columns past the last multiple of 4 run the same
// operations in scalar code. The assembly does no bounds checks: the
// wrappers in matrix.go check the lengths first.

// axpy4Kernel is axpy4 after its length check.
//
//go:noescape
func axpy4Kernel(o []float32, x *[4]float32, g []float32)

// axpy4x2Kernel is axpy4x2 after its length check.
//
//go:noescape
func axpy4x2Kernel(o0, o1 []float32, x, y *[4]float32, g []float32)

// axpyKernel is axpy after its length check.
//
//go:noescape
func axpyKernel(o []float32, x float32, brow []float32)
