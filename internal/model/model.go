package model

import (
	"math"
	"slices"

	"vrex/internal/kvcache"
	"vrex/internal/mathx"
	"vrex/internal/tensor"
)

// layerWeights holds one decoder layer's parameters.
type layerWeights struct {
	wq, wv, wo        *tensor.Matrix
	w1, w2, w3        *tensor.Matrix // SwiGLU: gate, down, up
	attnGain, ffnGain []float32
}

// Model is the functional streaming video LLM backbone. It owns per-layer
// KV caches and a running position counter; video frames and text chunks are
// pushed through Forward in arrival order (iterative prefill, Fig. 3).
type Model struct {
	Cfg    Config
	layers []*layerWeights
	caches []*kvcache.LayerCache
	pos    int
	// keys64 and q64 are attention's reusable buffers: one call's candidate
	// keys and one query row, widened to float64. vals holds the same
	// call's candidate value rows, cand its candidate token indices,
	// scores one (query row, head)'s scores and probs their softmax.
	keys64, q64         []float64
	vals, scores, probs []float32
	cand                []int
}

// New builds a model with deterministic random weights from cfg.Seed. The
// key projection is tied to the query projection (see package comment): a
// token's key is the leading KVDim columns of its rotated query.
func New(cfg Config) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rng := mathx.NewRNG(cfg.Seed)
	m := &Model{Cfg: cfg}
	scale := 1 / float32(math.Sqrt(float64(cfg.Dim)))
	for l := 0; l < cfg.Layers; l++ {
		lw := &layerWeights{
			wq: tensor.NewMatrix(cfg.Dim, cfg.Dim),
			wv: tensor.NewMatrix(cfg.Dim, cfg.KVDim()),
			wo: tensor.NewMatrix(cfg.Dim, cfg.Dim),
			w1: tensor.NewMatrix(cfg.Dim, cfg.FFNDim),
			w2: tensor.NewMatrix(cfg.FFNDim, cfg.Dim),
			w3: tensor.NewMatrix(cfg.Dim, cfg.FFNDim),
		}
		lw.wq.Randomize(rng, scale)
		lw.wv.Randomize(rng, scale)
		lw.wo.Randomize(rng, scale)
		lw.w1.Randomize(rng, scale)
		lw.w2.Randomize(rng, 1/float32(math.Sqrt(float64(cfg.FFNDim))))
		lw.w3.Randomize(rng, scale)
		lw.attnGain = ones(cfg.Dim)
		lw.ffnGain = ones(cfg.Dim)
		m.layers = append(m.layers, lw)
		m.caches = append(m.caches, kvcache.NewLayerCache(cfg.KVDim()))
	}
	return m
}

func ones(n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// Pos returns the number of tokens processed so far (the next base position).
func (m *Model) Pos() int { return m.pos }

// Cache returns layer l's KV cache (retrieval policies and the accuracy
// harness inspect it).
func (m *Model) Cache(l int) *kvcache.LayerCache { return m.caches[l] }

// Reset clears all caches and the position counter, starting a new session.
func (m *Model) Reset() {
	for l := range m.caches {
		m.caches[l] = kvcache.NewLayerCache(m.Cfg.KVDim())
	}
	m.pos = 0
}

// ForwardResult carries a chunk's outputs.
type ForwardResult struct {
	// Hidden is the final-layer hidden state (tokens x Dim).
	Hidden *tensor.Matrix
	// AttnMass, when recording, accumulates the softmax attention mass each
	// past token received from this chunk's queries, summed over layers and
	// heads. Index = global token index; length = base (tokens before this
	// chunk). The accuracy harness reads answers from it.
	AttnMass []float64
}

// Forward pushes one chunk of embeddings (tokens x Dim) through the model
// with retrieval policy r at the given stage, appending to the KV caches and
// advancing the position counter. If record is true, per-token attention
// mass is accumulated into the result.
func (m *Model) Forward(x *tensor.Matrix, r Retriever, stage Stage, record bool) ForwardResult {
	if x.Cols != m.Cfg.Dim {
		panic("model: input dim mismatch")
	}
	base := m.pos
	n := x.Rows
	res := ForwardResult{}
	if record {
		res.AttnMass = make([]float64, base)
	}
	h := x.Clone()
	for l, lw := range m.layers {
		normed := tensor.RMSNorm(h, lw.attnGain, 1e-6)
		q := tensor.MatMul(normed, lw.wq)
		v := tensor.MatMul(normed, lw.wv)
		m.applyRotary(q, m.Cfg.Heads, base)

		// Tied QK: the key projection is wq's leading KVDim columns, so a
		// key is its query's leading KVDim columns. MatMul computes each
		// output column from its own B column alone, and rotary turns the
		// heads below KVHeads by the same angles in both, so these are the
		// bits a separate key MatMul and rotary pass would give.
		cache := m.caches[l]
		for i := 0; i < n; i++ {
			cache.Append(q.Row(i)[:m.Cfg.KVDim()], v.Row(i))
		}
		r.ObserveAppend(l, cache, base, n)
		sel := r.SelectTokens(l, cache, q, base, stage)

		attnOut := m.attention(q, cache, sel, base, n, res.AttnMass)
		proj := tensor.MatMul(attnOut, lw.wo)
		tensor.AddInPlace(h, proj)

		ffnIn := tensor.RMSNorm(h, lw.ffnGain, 1e-6)
		gate := tensor.MatMul(ffnIn, lw.w1)
		up := tensor.MatMul(ffnIn, lw.w3)
		tensor.SiLU(gate)
		for i := range gate.Data {
			gate.Data[i] *= up.Data[i]
		}
		ffnOut := tensor.MatMul(gate, lw.w2)
		tensor.AddInPlace(h, ffnOut)
	}
	m.pos += n
	res.Hidden = h
	return res
}

// applyRotary rotates the leading RotaryFraction of each head's dimensions
// for every row of mat (rows are tokens at positions base+i). A frequency
// depends only on its index and an angle only on position and frequency, so
// each is computed once and applied to every head that shares it.
func (m *Model) applyRotary(mat *tensor.Matrix, nHeads, base int) {
	headDim := m.Cfg.HeadDim()
	rot := m.Cfg.rotaryDims()
	if rot == 0 {
		return
	}
	for kk := 0; kk < rot/2; kk++ {
		freq := math.Pow(m.Cfg.RoPETheta, -2*float64(kk)/float64(rot))
		for i := 0; i < mat.Rows; i++ {
			sin, cos := math.Sincos(float64(base+i) * freq)
			row := mat.Row(i)
			for hd := 0; hd < nHeads; hd++ {
				pair := row[hd*headDim+2*kk : hd*headDim+2*kk+2]
				a, b := float64(pair[0]), float64(pair[1])
				pair[0] = float32(float64(a*cos) - float64(b*sin))
				pair[1] = float32(float64(a*sin) + float64(b*cos))
			}
		}
	}
}

// attention computes causal multi-head attention for the chunk's queries
// over the selected past tokens plus the chunk's own (causal) tokens.
// q: n x Dim; sel: past-token indices (< base). attnMass, if non-nil,
// accumulates mass received by past tokens.
func (m *Model) attention(q *tensor.Matrix, cache *kvcache.LayerCache, sel []int, base, n int, attnMass []float64) *tensor.Matrix {
	cfg := m.Cfg
	headDim := cfg.HeadDim()
	group := cfg.Heads / cfg.KVHeads
	sharp := cfg.Sharpness
	if sharp == 0 {
		sharp = 1
	}
	invSqrt := float32(sharp / math.Sqrt(float64(headDim)))
	out := tensor.NewMatrix(n, cfg.Dim)

	// Query row i's candidates are the selected past tokens plus in-chunk
	// tokens <= i: a prefix of one candidate list, scored into a prefix of
	// one score buffer. Each candidate's key is widened to float64 once, and
	// its value row copied once, into one block of keys and one of values
	// per kv head, so row i reads a prefix of its kv head's blocks.
	cand := append(m.cand[:0], sel...)
	for i := 0; i < n; i++ {
		cand = append(cand, base+i)
	}
	m.cand = cand
	m.scores = slices.Grow(m.scores[:0], len(cand))[:len(cand)]
	m.probs = slices.Grow(m.probs[:0], len(cand))[:len(cand)]
	block := len(cand) * headDim
	m.keys64 = slices.Grow(m.keys64[:0], cfg.KVHeads*block)[:cfg.KVHeads*block]
	m.vals = slices.Grow(m.vals[:0], cfg.KVHeads*block)[:cfg.KVHeads*block]
	for ci, tok := range cand {
		key, val := cache.Key(tok), cache.Value(tok)
		for kvh := 0; kvh < cfg.KVHeads; kvh++ {
			at, lo, hi := kvh*block+ci*headDim, kvh*headDim, (kvh+1)*headDim
			mathx.Widen(m.keys64[at:], key[lo:hi])
			copy(m.vals[at:], val[lo:hi])
		}
	}
	m.q64 = slices.Grow(m.q64[:0], cfg.Dim)[:cfg.Dim]
	for i := 0; i < n; i++ {
		nc := len(sel) + i + 1
		scores, probs := m.scores[:nc], m.probs[:nc]
		mathx.Widen(m.q64, q.Row(i))
		orow := out.Row(i)
		for h := 0; h < cfg.Heads; h++ {
			kvh := h / group
			maxv := mathx.ScoreKeys(scores, m.q64[h*headDim:(h+1)*headDim], m.keys64[kvh*block:][:nc*headDim], invSqrt)
			mathx.Softmax(probs, scores, maxv)
			addWeighted(orow[h*headDim:(h+1)*headDim], probs, m.vals[kvh*block:][:nc*headDim])
			if attnMass == nil {
				continue
			}
			for ci, tok := range cand[:nc] {
				if w := probs[ci]; w != 0 && tok < base {
					attnMass[tok] += float64(w)
				}
			}
		}
	}
	return out
}

// addWeighted adds w[c] * vals[c*len(oh):][:len(oh)] to oh for each
// candidate c in order, so each oh[d] receives its terms in candidate order.
// A weight equal to zero (+0 or -0) is skipped, which is not the same as
// adding 0*v when v holds -0, ±Inf or NaN; a NaN weight is not skipped. The
// kernel is SSE2 assembly on amd64 (valuesum_amd64.s) and Go elsewhere
// (valuesum_generic.go); both round each product and sum as
// oh[d] += w[c]*v[d] does. This wrapper checks the lengths the assembly
// relies on.
//
//vrex:noalloc
func addWeighted(oh, w, vals []float32) {
	if len(vals) != len(w)*len(oh) {
		panic("model: addWeighted length mismatch")
	}
	addWeightedKernel(oh, w, vals)
}
