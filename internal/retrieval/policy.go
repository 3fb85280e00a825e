// Package retrieval implements the baseline KV cache retrieval policies the
// paper compares against (Sec. VI): FlexGen (offload everything, fetch
// everything), InfiniGen (top-k selection during text generation only),
// InfiniGenP (InfiniGen extended to the prefill stage) and ReKV (frame-level
// top-k selection). All are fixed-top-k designs — the inflexibility ReSV's
// dynamic thresholding removes (Sec. III-C).
package retrieval

import (
	"sort"

	"math"

	"vrex/internal/kvcache"
	"vrex/internal/mathx"
	"vrex/internal/model"
	"vrex/internal/tensor"
)

// Policy is a named retrieval policy with ratio accounting; every baseline
// here implements it, and core.ReSV satisfies it too.
type Policy interface {
	model.Retriever
	Name() string
	// FrameRatio and TextRatio return the observed retrieval ratios
	// (selected/candidate tokens) per stage, in [0, 1].
	FrameRatio() float64
	TextRatio() float64
}

// tracker accumulates per-stage ratio accounting shared by the baselines.
type tracker struct {
	frameSel, frameCand int64
	textSel, textCand   int64
}

func (t *tracker) record(stage model.Stage, selected, candidates int) {
	if stage == model.StageFrame {
		t.frameSel += int64(selected)
		t.frameCand += int64(candidates)
	} else {
		t.textSel += int64(selected)
		t.textCand += int64(candidates)
	}
}

func ratio(sel, cand int64) float64 {
	if cand == 0 {
		return 1
	}
	return float64(sel) / float64(cand)
}

// FrameRatio implements part of Policy.
func (t *tracker) FrameRatio() float64 { return ratio(t.frameSel, t.frameCand) }

// TextRatio implements part of Policy.
func (t *tracker) TextRatio() float64 { return ratio(t.textSel, t.textCand) }

// allPast returns [0, base).
func allPast(base int) []int {
	sel := make([]int, base)
	for i := range sel {
		sel[i] = i
	}
	return sel
}

// headScores computes, for every past token, the maximum exp-normalised
// attention score over all (query, head) rows — the importance estimate
// fixed-top-k baselines rank by. queries is tokens x Dim. Each row is
// normalised by its largest score, folded from the first as the row is
// scored.
func headScores(cfg model.Config, cache *kvcache.LayerCache, queries *tensor.Matrix, base int) []float64 {
	headDim := cfg.HeadDim()
	group := cfg.Heads / cfg.KVHeads
	sharp := cfg.Sharpness
	if sharp == 0 {
		sharp = 1
	}
	invSqrt := float32(sharp / math.Sqrt(float64(headDim)))
	imp := make([]float64, base)
	raw := make([]float32, base)
	norm := make([]float32, base)
	for qi := 0; qi < queries.Rows; qi++ {
		qrow := queries.Row(qi)
		for h := 0; h < cfg.Heads; h++ {
			kvh := h / group
			qh := qrow[h*headDim : (h+1)*headDim]
			var maxv float32
			for tok := 0; tok < base; tok++ {
				krow := cache.Key(tok)[kvh*headDim : (kvh+1)*headDim]
				v := float32(mathx.Dot(qh, krow)) * invSqrt
				raw[tok] = v
				if tok == 0 || v > maxv {
					maxv = v
				}
			}
			mathx.ExpNormalize(norm, raw, maxv)
			for tok := 0; tok < base; tok++ {
				if v := float64(norm[tok]); v > imp[tok] {
					imp[tok] = v
				}
			}
		}
	}
	return imp
}

// topK returns the indices of the k highest-scoring entries, ascending.
func topK(scores []float64, k int) []int {
	if k >= len(scores) {
		return allPast(len(scores))
	}
	if k <= 0 {
		return nil
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	sel := append([]int(nil), idx[:k]...)
	sort.Ints(sel)
	return sel
}

func sortAsc(xs []int) { sort.Ints(xs) }
