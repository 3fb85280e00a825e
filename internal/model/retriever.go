package model

import (
	"vrex/internal/kvcache"
	"vrex/internal/tensor"
)

// Retriever is the policy hook the transformer consults each layer: which
// past tokens may attention read? Implementations range from dense
// attention (everything) to ReSV's clustered dynamic selection.
//
// The contract per forward chunk, per layer:
//  1. ObserveAppend fires after the chunk's new K/V rows are appended to the
//     layer cache at indices [base, base+n); policies update their metadata
//     (e.g. ReSV's HC table) here.
//  2. SelectTokens returns indices of *past* tokens (< base) the chunk's
//     queries may attend to. queries is the model's reusable buffer, valid
//     only during the call. In-chunk tokens are always attended causally
//     and must not be returned. The returned slice may alias the policy's
//     reusable selection buffer: it is only valid until the next
//     SelectTokens call on the same layer, and callers that retain it must
//     copy it first.
type Retriever interface {
	ObserveAppend(layer int, cache *kvcache.LayerCache, base, n int)
	SelectTokens(layer int, cache *kvcache.LayerCache, queries *tensor.Matrix, base int, stage Stage) []int
}

// DenseRetriever attends to the full history (the no-retrieval baseline,
// i.e. vanilla VideoLLM-Online).
type DenseRetriever struct{}

// ObserveAppend implements Retriever.
func (DenseRetriever) ObserveAppend(int, *kvcache.LayerCache, int, int) {}

// SelectTokens implements Retriever: all past tokens.
func (DenseRetriever) SelectTokens(_ int, _ *kvcache.LayerCache, _ *tensor.Matrix, base int, _ Stage) []int {
	sel := make([]int, base)
	for i := range sel {
		sel[i] = i
	}
	return sel
}
