package model

// addWeightedKernel is addWeighted after its length check, in SSE2 assembly
// (valuesum_amd64.s). SSE2 is part of every amd64 CPU, so there is no
// feature detection and no other amd64 path. The assembly does no bounds
// checks.
//
//go:noescape
func addWeightedKernel(oh, w, vals []float32)
