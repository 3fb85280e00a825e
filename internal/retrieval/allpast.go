package retrieval

import (
	"vrex/internal/kvcache"
	"vrex/internal/model"
	"vrex/internal/tensor"
)

// AllPast selects every past token for every layer: no retrieval at all.
// Two baselines make this selection and differ only in where they keep the
// KV cache, which the functional plane does not model, so they share this
// type and differ in name:
//
//   - NewDense is the no-retrieval baseline (vanilla VideoLLM-Online): full
//     attention over the entire resident KV cache. It implies no
//     offloading at all — the cache must fit in device memory, which is
//     exactly what fails beyond a few minutes of video (Fig. 4a).
//   - NewFlexGen models FlexGen-style full offloading: the entire KV cache
//     is offloaded and every past token is fetched back for every layer.
//     It is the latency baseline of Fig. 13.
type AllPast struct {
	tracker
	name string
}

// NewDense returns the no-retrieval baseline, named "VideoLLM-Online".
func NewDense() *AllPast { return &AllPast{name: "VideoLLM-Online"} }

// NewFlexGen returns the full-offloading baseline, named "FlexGen".
func NewFlexGen() *AllPast { return &AllPast{name: "FlexGen"} }

// Name implements Policy.
func (p *AllPast) Name() string { return p.name }

// ObserveAppend implements model.Retriever.
func (*AllPast) ObserveAppend(int, *kvcache.LayerCache, int, int) {}

// SelectTokens implements model.Retriever: everything.
func (p *AllPast) SelectTokens(_ int, _ *kvcache.LayerCache, _ *tensor.Matrix, base int, stage model.Stage) []int {
	p.record(stage, base, base)
	return allPast(base)
}
