//go:build !amd64

package tensor

// The portable axpy kernels: the only path on architectures without an
// assembly version. Each product is converted explicitly to float32, which
// rounds it and so keeps the compiler from fusing it with the add that
// follows into one FMA instruction: every output has the roundings the SSE2
// kernels give it.

// axpy4Kernel is axpy4 after its length check.
//
//vrex:noalloc
func axpy4Kernel(o []float32, x *[4]float32, g []float32) {
	b0, b1, b2, b3 := group4(g, len(o))
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	for j := range o {
		o[j] += float32(x0*b0[j]) + float32(x1*b1[j]) + float32(x2*b2[j]) + float32(x3*b3[j])
	}
}

// axpy4x2Kernel is axpy4x2 after its length check.
//
//vrex:noalloc
func axpy4x2Kernel(o0, o1 []float32, x, y *[4]float32, g []float32) {
	b0, b1, b2, b3 := group4(g, len(o0))
	o1 = o1[:len(o0)]
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
	for j := range o0 {
		c0, c1, c2, c3 := b0[j], b1[j], b2[j], b3[j]
		o0[j] += float32(x0*c0) + float32(x1*c1) + float32(x2*c2) + float32(x3*c3)
		o1[j] += float32(y0*c0) + float32(y1*c1) + float32(y2*c2) + float32(y3*c3)
	}
}

// group4 splits g into its four B rows of n columns each. Each is re-sliced
// to [:n] so the compiler can prove indices below n in bounds and drop the
// checks from the callers' inner loops.
func group4(g []float32, n int) (b0, b1, b2, b3 []float32) {
	return g[:n], g[n:][:n], g[2*n:][:n], g[3*n:][:n]
}

// axpyKernel is axpy after its length check.
//
//vrex:noalloc
func axpyKernel(o []float32, x float32, brow []float32) {
	brow = brow[:len(o)]
	for j := range o {
		o[j] += float32(x * brow[j])
	}
}
