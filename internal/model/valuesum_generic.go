//go:build !amd64

package model

// addWeightedKernel is addWeighted after its length check: the portable
// loop, the only path on architectures without an assembly version. The
// product is converted explicitly to float32, which rounds it and so keeps
// the compiler from fusing it with the add into one FMA instruction.
//
//vrex:noalloc
func addWeightedKernel(oh, w, vals []float32) {
	n := len(oh)
	for c, wc := range w {
		if wc == 0 {
			continue
		}
		vrow := vals[c*n:][:n]
		for d := range oh {
			oh[d] += float32(wc * vrow[d])
		}
	}
}
