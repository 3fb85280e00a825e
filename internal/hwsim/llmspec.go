package hwsim

// LLMSpec is the analytic shape of the backbone LLM (paper scale:
// Llama-3 8B) from which per-chunk FLOP and byte counts derive.
type LLMSpec struct {
	Layers  int
	Dim     int
	Heads   int
	KVHeads int
	FFNDim  int
	Vocab   int
	// BytesPerElem is the storage precision of weights/KV (2 for BF16).
	BytesPerElem float64
}

// Llama3_8B returns the paper's backbone: 32 layers, d=4096, 32 heads,
// 8 KV heads (GQA), FFN 14336, vocab 128256, BF16.
func Llama3_8B() LLMSpec {
	return LLMSpec{
		Layers:       32,
		Dim:          4096,
		Heads:        32,
		KVHeads:      8,
		FFNDim:       14336,
		Vocab:        128256,
		BytesPerElem: 2,
	}
}

// HeadDim returns Dim/Heads.
func (s LLMSpec) HeadDim() int { return s.Dim / s.Heads }

// KVDim returns KVHeads x HeadDim.
func (s LLMSpec) KVDim() int { return s.KVHeads * s.HeadDim() }

// KVBytesPerToken returns the full-model KV footprint of one token:
// 2 (K and V) x Layers x KVDim x BytesPerElem. For Llama-3 8B this is
// 128 KiB/token, which drives the Fig. 4a memory growth.
func (s LLMSpec) KVBytesPerToken() float64 {
	return 2 * float64(s.Layers) * float64(s.KVDim()) * s.BytesPerElem
}

// WeightBytes returns total parameter bytes (attention + FFN + embeddings).
func (s LLMSpec) WeightBytes() float64 {
	d := float64(s.Dim)
	kv := float64(s.KVDim())
	f := float64(s.FFNDim)
	perLayer := d*d + 2*d*kv + d*d + 3*d*f // wq, wk+wv, wo, w1/w2/w3
	return (float64(s.Layers)*perLayer + 2*float64(s.Vocab)*d) * s.BytesPerElem
}

// LayerLinearFLOPs returns the dense (QKVO + FFN) FLOPs for a chunk of n
// tokens in one layer.
func (s LLMSpec) LayerLinearFLOPs(n int) float64 {
	return s.layerLinearFLOPs(n, float64(s.KVDim()))
}

// layerLinearFLOPs is LayerLinearFLOPs given the KV width kv, which the cost
// model derives once per pricing call. It and layerKVBytes take a pointer so
// the cost model's inlined calls read Sim.LLM in place instead of copying it.
func (s *LLMSpec) layerLinearFLOPs(n int, kv float64) float64 {
	d := float64(s.Dim)
	f := float64(s.FFNDim)
	nn := float64(n)
	qkvo := 2 * nn * d * (d + 2*kv + d)
	ffn := 2 * nn * d * f * 3
	return qkvo + ffn
}

// LayerAttnFLOPs returns attention FLOPs for n query tokens attending to
// attended tokens in one layer (scores + weighted values).
func (s LLMSpec) LayerAttnFLOPs(n, attended int) float64 {
	return 4 * float64(n) * float64(attended) * float64(s.Dim)
}

// LayerWeightBytes returns per-layer weight traffic for one pass.
func (s LLMSpec) LayerWeightBytes() float64 {
	d := float64(s.Dim)
	kv := float64(s.KVDim())
	f := float64(s.FFNDim)
	return (2*d*d + 2*d*kv + 3*d*f) * s.BytesPerElem
}

// LayerKVBytes returns the KV bytes read by attention over `attended` tokens
// in one layer.
func (s LLMSpec) LayerKVBytes(attended int) float64 {
	return s.layerKVBytes(attended, float64(s.KVDim()))
}

// layerKVBytes is LayerKVBytes given the KV width kv.
func (s *LLMSpec) layerKVBytes(attended int, kv float64) float64 {
	return 2 * float64(attended) * kv * s.BytesPerElem
}

// PredFLOPs returns the KV-prediction compute for n query tokens scored
// against cand candidates in one layer (Q x K^T over KVDim plus
// normalisation), the dominant term of retrieval prediction (Fig. 4c).
func (s LLMSpec) PredFLOPs(n, cand int) float64 {
	return predFLOPs(n, cand, float64(s.KVDim()))
}

// predFLOPs is PredFLOPs given the KV width kv.
func predFLOPs(n, cand int, kv float64) float64 {
	return 2*float64(n)*float64(cand)*kv + 4*float64(n)*float64(cand)
}
