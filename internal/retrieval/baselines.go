package retrieval

import (
	"vrex/internal/kvcache"
	"vrex/internal/model"
	"vrex/internal/tensor"
)

// InfiniGen models InfiniGen: speculative top-k token selection, but only
// during the text generation stage; the iterative prefill attends (and
// therefore fetches) everything — the mismatch Sec. III-A identifies.
type InfiniGen struct {
	tracker
	cfg model.Config
	// TextBudget is the fraction of past tokens fetched during generation.
	TextBudget float64
}

// NewInfiniGen returns the policy with the given generation-stage budget.
func NewInfiniGen(cfg model.Config, textBudget float64) *InfiniGen {
	return &InfiniGen{cfg: cfg, TextBudget: textBudget}
}

// Name implements Policy.
func (*InfiniGen) Name() string { return "InfiniGen" }

// ObserveAppend implements model.Retriever.
func (*InfiniGen) ObserveAppend(int, *kvcache.LayerCache, int, int) {}

// SelectTokens implements model.Retriever.
func (g *InfiniGen) SelectTokens(_ int, cache *kvcache.LayerCache, queries *tensor.Matrix, base int, stage model.Stage) []int {
	if stage == model.StageFrame {
		g.record(stage, base, base)
		return allPast(base)
	}
	k := int(g.TextBudget*float64(base) + 0.5)
	if k < 1 && base > 0 {
		k = 1
	}
	sel := topK(headScores(g.cfg, cache, queries, base), k)
	g.record(stage, len(sel), base)
	return sel
}

// InfiniGenP extends InfiniGen's fixed top-k selection to the prefill stage
// with a (necessarily large) frame budget; the paper configures 50%, which
// costs up to 3.4 accuracy points (Table II).
type InfiniGenP struct {
	tracker
	cfg         model.Config
	FrameBudget float64
	TextBudget  float64
}

// NewInfiniGenP returns the policy.
func NewInfiniGenP(cfg model.Config, frameBudget, textBudget float64) *InfiniGenP {
	return &InfiniGenP{cfg: cfg, FrameBudget: frameBudget, TextBudget: textBudget}
}

// Name implements Policy.
func (*InfiniGenP) Name() string { return "InfiniGenP" }

// ObserveAppend implements model.Retriever.
func (*InfiniGenP) ObserveAppend(int, *kvcache.LayerCache, int, int) {}

// SelectTokens implements model.Retriever.
func (g *InfiniGenP) SelectTokens(_ int, cache *kvcache.LayerCache, queries *tensor.Matrix, base int, stage model.Stage) []int {
	budget := g.FrameBudget
	if stage == model.StageText {
		budget = g.TextBudget
	}
	k := int(budget*float64(base) + 0.5)
	if k < 1 && base > 0 {
		k = 1
	}
	sel := topK(headScores(g.cfg, cache, queries, base), k)
	g.record(stage, len(sel), base)
	return sel
}

// ReKV models ReKV's frame-level (coarse-grained) selection: past tokens are
// grouped into fixed frames of FrameSize tokens; whole frames are ranked by
// their best token score and selected until the stage's token budget is
// reached. Coarse granularity forces higher budgets to keep accuracy
// (Table II: ~58% frame / ~31% text).
type ReKV struct {
	tracker
	cfg         model.Config
	FrameSize   int
	FrameBudget float64
	TextBudget  float64
}

// NewReKV returns the policy; frameSize is the token granularity of
// selection (the video tokens-per-frame).
func NewReKV(cfg model.Config, frameSize int, frameBudget, textBudget float64) *ReKV {
	if frameSize <= 0 {
		panic("retrieval: ReKV frame size must be positive")
	}
	return &ReKV{cfg: cfg, FrameSize: frameSize, FrameBudget: frameBudget, TextBudget: textBudget}
}

// Name implements Policy.
func (*ReKV) Name() string { return "ReKV" }

// ObserveAppend implements model.Retriever.
func (*ReKV) ObserveAppend(int, *kvcache.LayerCache, int, int) {}

// SelectTokens implements model.Retriever.
func (r *ReKV) SelectTokens(_ int, cache *kvcache.LayerCache, queries *tensor.Matrix, base int, stage model.Stage) []int {
	if base == 0 {
		return nil
	}
	budget := r.FrameBudget
	if stage == model.StageText {
		budget = r.TextBudget
	}
	tokenBudget := int(budget*float64(base) + 0.5)
	if tokenBudget < 1 {
		tokenBudget = 1
	}
	scores := headScores(r.cfg, cache, queries, base)
	nFrames := (base + r.FrameSize - 1) / r.FrameSize
	frameScore := make([]float64, nFrames)
	for tok, s := range scores {
		f := tok / r.FrameSize
		if s > frameScore[f] {
			frameScore[f] = s
		}
	}
	order := topK(frameScore, nFrames) // ascending frame ids, all frames
	// Rank frames by score descending.
	byScore := append([]int(nil), order...)
	sortByScoreDesc(byScore, frameScore)
	var sel []int
	for _, f := range byScore {
		if len(sel) >= tokenBudget {
			break
		}
		lo := f * r.FrameSize
		hi := lo + r.FrameSize
		if hi > base {
			hi = base
		}
		for tok := lo; tok < hi; tok++ {
			sel = append(sel, tok)
		}
	}
	sortAsc(sel)
	r.record(stage, len(sel), base)
	return sel
}

func sortByScoreDesc(ids []int, score []float64) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && score[ids[j]] > score[ids[j-1]]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
