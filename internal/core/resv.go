// Package core implements ReSV, the paper's primary contribution: a
// training-free dynamic KV cache retrieval algorithm for the iterative
// prefill stage of streaming video LLMs (Sec. IV). ReSV combines
//
//   - hash-bit key clustering (internal/hashbit): arriving frame keys are
//     grouped with spatially/temporally similar past keys via hyperplane
//     signatures and Hamming distance, maintaining a per-layer HC table; and
//   - WiCSum thresholding (internal/wicsum): per query token and attention
//     head, clusters are scored against the query (Q x Key_cluster^T) and
//     the smallest high-mass prefix is selected adaptively — no fixed top-k.
//
// The selected clusters are mapped back to token indices through the HC
// table for light attention in the execution stage (Fig. 6). What fetching
// them costs, including the KVMU's cluster-contiguous layout (Fig. 12), is
// priced by the hardware simulator (internal/hwsim), not here.
//
// Like the hardware, the software kernel never redoes work as the stream
// grows: the HC table's candidate set is maintained incrementally as frames
// arrive; cluster scoring runs one fused kernel per (query token, head) row
// over per-layer float64 mirrors of the representative keys, with the
// queries widened to float64 once per call, and Config.Workers shards those
// rows (the kernel, mathx.ScoreKeys, is SSE2 assembly on amd64 and a Go loop
// elsewhere, with the same bits on both); and all per-frame working sets
// (score rows, selection bitsets, the token buffer) live in reusable
// per-layer scratch arenas — steady-state SelectTokens performs zero heap
// allocations on the sequential path (pinned by
// TestSelectTokensSteadyStateAllocFree).
//
// ReSV implements model.Retriever, so it drops into the functional
// transformer; its Stats feed the performance simulator and the Fig. 20 /
// Table II experiments.
package core

import (
	"fmt"
	"math"
	"math/bits"

	"vrex/internal/hashbit"
	"vrex/internal/kvcache"
	"vrex/internal/mathx"
	"vrex/internal/model"
	"vrex/internal/parallel"
	"vrex/internal/tensor"
	"vrex/internal/wicsum"
)

// Config holds ReSV's hyperparameters. The defaults are the paper's
// evaluation setting (Sec. VI-E): N_hp = 32, Th_hd = 7, Th_r-wics = 0.3.
type Config struct {
	// NHp is the number of random hyperplanes (signature bits), in
	// [1, maxNHp].
	NHp int
	// ThHD is the Hamming-distance clustering threshold.
	ThHD int
	// ThWics is the WiCSum mass ratio Th_r-wics in (0, 1].
	ThWics float64
	// Buckets enables the WTU's early-exit bucket sorter when > 0 (the
	// hardware uses 20 buckets); 0 selects the exact software sort.
	Buckets int
	// RecentWindow tokens immediately preceding the current chunk are always
	// attended (they are device-resident "recent KV" in Fig. 12).
	RecentWindow int
	// DisableClustering runs WiCSum over individual tokens (every token its
	// own cluster) — the "ReSV w/o clustering" ablation of Fig. 19.
	DisableClustering bool
	// Seed draws the hyperplanes.
	Seed uint64
	// Workers shards the per-row cluster scoring (Q x RepKey^T and its
	// exp-normalisation) and the per-head WiCSum thresholding across
	// goroutines: 0 uses GOMAXPROCS, 1 restores the sequential kernel.
	// Selections are identical for any count.
	Workers int
}

// maxNHp bounds Config.NHp: 1024 hyperplanes are 16 signature words, 16x
// the most the sweep-nhp experiment draws. The hyperplane matrix grows with
// NHp, so a larger value from a policy spec could ask for more memory than
// the process can get, which kills it instead of returning an error.
const maxNHp = 1024

// DefaultConfig returns the paper's evaluation hyperparameters.
func DefaultConfig() Config {
	return Config{NHp: 32, ThHD: 7, ThWics: 0.3, Buckets: 20, RecentWindow: 0, Seed: 1}
}

// Validate checks hyperparameter sanity.
func (c Config) Validate() error {
	switch {
	case c.NHp <= 0:
		return fmt.Errorf("core: NHp must be positive")
	case c.NHp > maxNHp:
		return fmt.Errorf("core: NHp must be at most %d, got %d", maxNHp, c.NHp)
	case c.ThHD < 0:
		return fmt.Errorf("core: ThHD must be non-negative")
	case c.ThWics <= 0 || c.ThWics > 1:
		return fmt.Errorf("core: ThWics must be in (0,1]")
	case c.Buckets < 0:
		return fmt.Errorf("core: Buckets must be non-negative")
	case c.RecentWindow < 0:
		return fmt.Errorf("core: RecentWindow must be non-negative")
	}
	return nil
}

// layerScratch is a layer's reusable working set: the KVPU/WTU stream
// through fixed on-chip buffers in hardware, and these arenas play the same
// role in software. Buffers grow monotonically with the session and are
// reused across frames, so the steady-state hot path allocates nothing.
type layerScratch struct {
	// keyView is a staging matrix header over the cache's own key rows
	// (ObserveAppend clusters in place instead of copying the chunk out).
	keyView tensor.Matrix
	// rep64[kvh] mirrors every cluster's representative key segment for kv
	// head kvh, widened to float64, headDim values per cluster in cluster
	// order: the keys each score row is computed against. Rows are refreshed
	// incrementally from the HC table's pending set as running means move.
	rep64 [][]float64
	// q64 holds the chunk's queries widened to float64, row-major like the
	// query matrix, so (query token, head) row i starts at i*headDim.
	q64 []float64
	// counts holds the per-candidate past-token counts WiCSum weights by.
	counts []int
	// massData is the flat arena behind masses, one exp-normalised score row
	// per (query token, head) pair.
	massData []float32
	masses   [][]float32
	// tokens is the selection buffer returned to the caller (valid until the
	// next SelectTokens call on this layer).
	tokens []int
	// tokenBits is a bitset over past tokens: the selected clusters' tokens
	// and the recent window are marked in it and read out in ascending
	// order. Invariant: all bits are zero between SelectTokens calls.
	tokenBits []uint64
	// headMark/headEpoch stamp (head, cluster) pairs seen in the current
	// call's per-head union (recordStats) without any clearing pass.
	headMark  []uint64
	headEpoch uint64
}

// layerState is ReSV's per-decoder-layer working set.
type layerState struct {
	clusterer *hashbit.Clusterer
	scratch   layerScratch
}

// ReSV is the retriever. One instance serves one model session; create a
// fresh instance (or call Reset) per session.
type ReSV struct {
	cfg      Config
	modelCfg model.Config
	layers   []*layerState
	selector wicsum.Selector
	stats    Stats
	rng      *mathx.RNG
}

var _ model.Retriever = (*ReSV)(nil)

// New creates a ReSV retriever for a model with the given configuration.
func New(modelCfg model.Config, cfg Config) *ReSV {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if err := modelCfg.Validate(); err != nil {
		panic(err)
	}
	r := &ReSV{
		cfg:      cfg,
		modelCfg: modelCfg,
		selector: wicsum.Selector{Ratio: cfg.ThWics, Buckets: cfg.Buckets, Workers: cfg.Workers},
		rng:      mathx.NewRNG(cfg.Seed),
		stats:    NewStats(modelCfg.Layers, modelCfg.Heads),
	}
	thHD := cfg.ThHD
	if cfg.DisableClustering {
		// With a strict < 0 threshold nothing ever joins: every token forms
		// its own singleton cluster, reducing WiCSum to per-token selection.
		thHD = 0
	}
	for l := 0; l < modelCfg.Layers; l++ {
		ls := &layerState{
			clusterer: hashbit.NewClusterer(modelCfg.KVDim(), cfg.NHp, thHD, r.rng.Split()),
		}
		ls.scratch.rep64 = make([][]float64, modelCfg.KVHeads)
		r.layers = append(r.layers, ls)
	}
	return r
}

// Stats returns the accumulated selection statistics.
func (r *ReSV) Stats() *Stats { return &r.stats }

// HCTable exposes layer l's hash cluster table (experiments inspect it).
func (r *ReSV) HCTable(l int) *hashbit.HCTable { return r.layers[l].clusterer.Table }

// ObserveAppend implements model.Retriever: cluster the chunk's new keys
// into the layer's HC table. Clustering reads the cache's key rows in place
// (no per-frame staging copy).
func (r *ReSV) ObserveAppend(layer int, cache *kvcache.LayerCache, base, n int) {
	ls := r.layers[layer]
	kv := &ls.scratch.keyView
	kv.Rows, kv.Cols = n, cache.Dim
	kv.Data = cache.KeySpan(base, n)
	ls.clusterer.AddFrame(kv, base)
}

// SelectTokens implements model.Retriever: run KV prediction (Fig. 6) for
// the chunk's queries and return the selected past-token indices. The
// returned slice is owned by the retriever and valid until the next
// SelectTokens call on the same layer.
func (r *ReSV) SelectTokens(layer int, cache *kvcache.LayerCache, queries *tensor.Matrix, base int, stage model.Stage) []int {
	if base == 0 {
		return nil
	}
	ls := r.layers[layer]
	sc := &ls.scratch
	headDim := r.modelCfg.HeadDim()
	heads := r.modelCfg.Heads
	sharp := r.modelCfg.Sharpness
	if sharp == 0 {
		sharp = 1
	}
	invSqrt := float32(sharp / math.Sqrt(float64(headDim)))

	table := ls.clusterer.Table

	// Refresh the representative-key mirrors for clusters whose running
	// means moved since the last call (the HC table's pending set), then
	// advance the past boundary. Candidate clusters — those containing at
	// least one past token — are exactly the leading PastClusters() table
	// rows, with PastCount() past members each; no per-frame rescan.
	nClusters := table.NumClusters()
	for kvh := range sc.rep64 {
		sc.rep64[kvh] = growMirror(sc.rep64[kvh], nClusters*headDim)
	}
	for _, id := range table.PendingClusters() {
		rep := table.Clusters[id].RepKey
		for kvh, m := range sc.rep64 {
			mathx.Widen(m[id*headDim:(id+1)*headDim], rep[kvh*headDim:(kvh+1)*headDim])
		}
	}
	table.AdvancePast(base)
	nCands := table.PastClusters()
	if nCands == 0 {
		return nil
	}
	sc.counts = growInts(sc.counts, nCands)
	for ci := 0; ci < nCands; ci++ {
		sc.counts[ci] = table.PastCount(ci)
	}

	// Score matrix: one row per (query token, head) pair; columns = candidate
	// clusters. Each row scores its query segment against its kv head's
	// mirror (the KVPU's Q x RepKey^T), scaled, then exp-normalises it so
	// WiCSum accumulates attention mass. Rows are independent, so sharding
	// them never changes a result.
	nq := queries.Rows
	nRows := nq * heads
	if cap(sc.q64) < len(queries.Data) {
		sc.q64 = make([]float64, len(queries.Data))
	}
	mathx.Widen(sc.q64, queries.Data)
	if cap(sc.massData) < nRows*nCands {
		sc.massData = make([]float32, nRows*nCands)
	}
	if cap(sc.masses) < nRows {
		sc.masses = make([][]float32, nRows)
	}
	masses := sc.masses[:nRows]
	for row := 0; row < nRows; row++ {
		masses[row] = sc.massData[row*nCands : (row+1)*nCands]
	}
	rowWorkers := r.cfg.Workers
	if nRows*nCands < 2048 {
		rowWorkers = 1
	}
	if parallel.Workers(rowWorkers) <= 1 {
		for row, mass := range masses {
			r.scoreRow(sc, mass, row, invSqrt)
		}
	} else {
		parallel.ForEach(rowWorkers, nRows, func(row int) {
			r.scoreRow(sc, masses[row], row, invSqrt)
		})
	}

	sel := r.selector.SelectMatrix(masses, sc.counts)

	// Union of selected clusters -> past-token indices: mark the selected
	// clusters' tokens and the always-attended recent window in a bitset
	// over past tokens, then read the set bits out in ascending order,
	// clearing each word as it is read.
	words := (base + 63) / 64
	if cap(sc.tokenBits) < words {
		sc.tokenBits = make([]uint64, words)
	}
	marks := sc.tokenBits[:words]
	for _, ci := range sel.Union {
		for _, tok := range table.PastTokens(ci) {
			marks[tok>>6] |= 1 << (uint(tok) & 63)
		}
	}
	for tok := max(base-r.cfg.RecentWindow, 0); tok < base; tok++ {
		marks[tok>>6] |= 1 << (uint(tok) & 63)
	}
	tokens := sc.tokens[:0]
	for w, word := range marks {
		for ; word != 0; word &= word - 1 {
			tokens = append(tokens, w<<6|bits.TrailingZeros64(word))
		}
		marks[w] = 0
	}
	sc.tokens = tokens

	r.recordStats(layer, stage, sel, base, len(tokens), nCands)
	return tokens
}

// scoreRow fills (query token, head) row's mass over the len(mass) leading
// candidate clusters: the query segment against its kv head's mirrored
// representative keys, scaled by invSqrt, then exp-normalised.
//
//vrex:noalloc
func (r *ReSV) scoreRow(sc *layerScratch, mass []float32, row int, invSqrt float32) {
	headDim, heads := r.modelCfg.HeadDim(), r.modelCfg.Heads
	kvh := row % heads / (heads / r.modelCfg.KVHeads)
	q := sc.q64[row*headDim : (row+1)*headDim]
	mathx.ScoreKeys(mass, q, sc.rep64[kvh][:len(mass)*headDim], invSqrt)
	mathx.ExpNormalize(mass, mass)
}

// growMirror returns m grown to n values, preserving its contents.
func growMirror(m []float64, n int) []float64 {
	if cap(m) < n {
		m = append(m[:cap(m)], make([]float64, n-cap(m))...)
	}
	return m[:n]
}

// growInts returns a length-n int buffer, reusing buf's storage when it is
// large enough.
//
//vrex:noalloc
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// recordStats folds one selection into the ratio statistics. Per-head unions
// are deduplicated at cluster granularity with epoch-stamped marks: clusters
// partition tokens, so a head's unique-token count is the sum of past counts
// over its distinct selected clusters.
func (r *ReSV) recordStats(layer int, stage model.Stage, sel wicsum.MatrixSelection, base, selectedTokens, nCands int) {
	ss := r.stats.stage(stage)
	ss.SelectedTokens += int64(selectedTokens)
	ss.CandidateTokens += int64(base)
	ss.Rows += int64(len(sel.Rows))
	ss.ExaminedFraction += sel.ExaminedFraction
	ss.Calls++

	r.stats.PerLayer[layer].Selected += int64(selectedTokens)
	r.stats.PerLayer[layer].Candidate += int64(base)

	sc := &r.layers[layer].scratch
	table := r.layers[layer].clusterer.Table
	heads := r.modelCfg.Heads
	if cap(sc.headMark) < heads*nCands {
		sc.headMark = make([]uint64, heads*nCands)
	}
	mark := sc.headMark[:heads*nCands]
	sc.headEpoch++
	for rowIdx := range sel.Rows {
		h := rowIdx % heads
		markRow := mark[h*nCands : (h+1)*nCands]
		for _, ci := range sel.Rows[rowIdx].Selected {
			if markRow[ci] != sc.headEpoch {
				markRow[ci] = sc.headEpoch
				r.stats.PerHead[h].Selected += int64(table.PastCount(ci))
			}
		}
	}
	for h := 0; h < heads; h++ {
		r.stats.PerHead[h].Candidate += int64(base)
	}
}

// Reset clears all per-session state (HC tables and statistics) so the
// retriever can serve a fresh session, reusing the existing layer state and
// scratch arenas. The hyperplanes are redrawn from the original seed, so a
// reset instance behaves exactly like a newly constructed one.
func (r *ReSV) Reset() {
	r.rng = mathx.NewRNG(r.cfg.Seed)
	for _, ls := range r.layers {
		ls.clusterer.Reset(r.rng.Split())
	}
	r.stats = NewStats(r.modelCfg.Layers, r.modelCfg.Heads)
}
