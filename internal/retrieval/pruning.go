package retrieval

import (
	"vrex/internal/kvcache"
	"vrex/internal/model"
	"vrex/internal/tensor"
)

// Pruning models the destructive cache-eviction family the paper contrasts
// with retrieval (Sec. II: "pruning ... risk[s] permanently discarding
// information that, while irrelevant to the current query, may be essential
// for future ones"). Like H2O-style heavy-hitter eviction, it keeps a fixed
// budget of the highest-scoring tokens and permanently discards the rest —
// discarded tokens are never attended again, even if a later query needs
// them. The multiturn experiment uses it to reproduce the paper's
// conversational-coherence argument.
type Pruning struct {
	tracker
	cfg model.Config
	// Budget is the fraction of the live set retained after each chunk.
	Budget float64
	// alive[layer] marks tokens still in the cache.
	alive []map[int]bool
}

// NewPruning returns a destructive eviction policy with the given retention
// budget.
func NewPruning(cfg model.Config, budget float64) *Pruning {
	p := &Pruning{cfg: cfg, Budget: budget}
	p.alive = make([]map[int]bool, cfg.Layers)
	for l := range p.alive {
		p.alive[l] = make(map[int]bool)
	}
	return p
}

// Name implements Policy.
func (*Pruning) Name() string { return "Pruning (H2O-style)" }

// ObserveAppend implements model.Retriever: new tokens enter the live set.
func (p *Pruning) ObserveAppend(layer int, _ *kvcache.LayerCache, base, n int) {
	for i := 0; i < n; i++ {
		p.alive[layer][base+i] = true
	}
}

// SelectTokens implements model.Retriever: attend the live set, then evict
// the lowest-scoring survivors down to the budget — permanently.
func (p *Pruning) SelectTokens(layer int, cache *kvcache.LayerCache, queries *tensor.Matrix, base int, stage model.Stage) []int {
	live := p.alive[layer]
	var sel []int
	for tok := range live {
		if tok < base {
			sel = append(sel, tok)
		}
	}
	sortAsc(sel)
	p.record(stage, len(sel), base)
	if len(sel) == 0 {
		return sel
	}

	// Evict: score the live past tokens and keep the top Budget fraction
	// (plus the current chunk, which is always alive).
	scores := headScores(p.cfg, cache, queries, base)
	keep := int(p.Budget*float64(len(sel)) + 0.5)
	if keep < 1 {
		keep = 1
	}
	if keep < len(sel) {
		liveScores := make([]float64, len(sel))
		for i, tok := range sel {
			liveScores[i] = scores[tok]
		}
		kept := topK(liveScores, keep)
		keptSet := make(map[int]bool, len(kept))
		for _, i := range kept {
			keptSet[sel[i]] = true
		}
		for _, tok := range sel {
			if !keptSet[tok] {
				delete(live, tok) // permanent: the KV entry is gone
			}
		}
	}
	return sel
}
