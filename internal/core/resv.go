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
// arrive. Each (query token, head) row is scored (mathx.ScoreKeys over
// per-layer float64 mirrors of the representative keys: SSE2 assembly on
// amd64 and a Go loop elsewhere, with the same bits on both), exp-normalised
// (mathx.ExpNormalizeWeighted) and thresholded (a wicsum.Scratch) in one
// pass on one worker, and Config.Workers shards the rows. The kernels that
// write a row also reduce it: scoring returns the row's maximum, which the
// exp pass subtracts, and the exp pass returns the WTU's preprocess results
// (the weighted total, minimum and maximum), so thresholding never re-reads
// a row to reduce it. All per-frame working sets (score rows,
// selection bitsets, the token buffer) live in reusable scratch arenas —
// steady-state SelectTokens performs zero heap allocations on the
// sequential path (pinned by TestSelectTokensSteadyStateAllocFree).
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
	// RecentWindow tokens immediately preceding the current chunk are always
	// attended (they are device-resident "recent KV" in Fig. 12).
	RecentWindow int
	// DisableClustering runs WiCSum over individual tokens (every token its
	// own cluster) — the "ReSV w/o clustering" ablation of Fig. 19.
	DisableClustering bool
	// Seed draws the hyperplanes.
	Seed uint64
	// Workers shards a SelectTokens call's (query token, head) rows across
	// goroutines in contiguous chunks, each row scored, exp-normalised and
	// thresholded by one worker: 0 uses GOMAXPROCS, 1 keeps every row on the
	// caller's goroutine, as does a call under shardEntries score entries.
	// Selections and statistics are identical for any count.
	Workers int
}

// shardEntries is the fewest score entries (rows x candidate clusters) a
// SelectTokens call shards: a smaller one costs less than the fan-out.
const shardEntries = 2048

// maxNHp bounds Config.NHp: 1024 hyperplanes are 16 signature words, 16x
// the most the sweep-nhp experiment draws. The hyperplane matrix grows with
// NHp, so a larger value from a policy spec could ask for more memory than
// the process can get, which kills it instead of returning an error.
const maxNHp = 1024

// DefaultConfig returns the paper's evaluation hyperparameters.
func DefaultConfig() Config {
	return Config{NHp: 32, ThHD: 7, ThWics: 0.3, RecentWindow: 0, Seed: 1}
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
	case !(c.ThWics > 0 && c.ThWics <= 1): // NaN fails too
		return fmt.Errorf("core: ThWics must be in (0,1], got %v", c.ThWics)
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
	// weights holds the per-candidate past-token counts WiCSum weights by,
	// converted to float64 once per call, as the exp pass and Select
	// multiply by them.
	weights []float64
	// massData holds one exp-normalised score row per (query token, head)
	// pair, row i at i*nCands over the call's nCands candidate clusters.
	massData []float32
	// tokens is the selection buffer returned to the caller (valid until the
	// next SelectTokens call on this layer).
	tokens []int
	// tokenBits is a bitset over past tokens: the selected clusters' tokens
	// and the recent window are marked in it and read out in ascending
	// order. Invariant: all bits are zero between SelectTokens calls.
	tokenBits []uint64
}

// rowWorker is one worker's share of a SelectTokens call: the WiCSum scratch
// its rows are thresholded in, one bitset per head over the candidate
// clusters its rows selected (head h's cwords words at h*cwords), and how
// many score entries its rows examined. Invariant: the bitsets are zero
// between SelectTokens calls.
type rowWorker struct {
	ws       wicsum.Scratch
	headBits []uint64
	examined int
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
	// workers are the row workers' states, shared by the layers: a model
	// selects for one layer at a time.
	workers []rowWorker
	stats   Stats
	rng     *mathx.RNG
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
	sc.weights = growFloats(sc.weights, nCands)
	for ci := range sc.weights {
		sc.weights[ci] = float64(table.PastCount(ci))
	}

	// Score and threshold: one row per (query token, head) pair over the
	// candidate clusters. Workers take contiguous chunks of rows; rows are
	// independent, and everything folded from them below is an integer sum
	// or a bit OR, so sharding never changes a result.
	nRows := queries.Rows * heads
	if cap(sc.q64) < len(queries.Data) {
		sc.q64 = make([]float64, len(queries.Data))
	}
	mathx.Widen(sc.q64, queries.Data)
	if cap(sc.massData) < nRows*nCands {
		sc.massData = make([]float32, nRows*nCands)
	}
	cwords := (nCands + 63) / 64
	workers := 1
	if nRows*nCands >= shardEntries {
		workers = min(parallel.Workers(r.cfg.Workers), nRows)
	}
	for len(r.workers) < workers {
		r.workers = append(r.workers, rowWorker{})
	}
	active := r.workers[:workers]
	for w := range active {
		if cap(active[w].headBits) < heads*cwords {
			active[w].headBits = make([]uint64, heads*cwords)
		}
	}
	if workers == 1 {
		r.selectRows(sc, &active[0], 0, nRows, nCands, invSqrt)
	} else {
		chunk := (nRows + workers - 1) / workers
		parallel.ForEach(workers, workers, func(w int) {
			lo := w * chunk
			r.selectRows(sc, &active[w], lo, min(lo+chunk, nRows), nCands, invSqrt)
		})
	}

	// Read the per-head bitsets out, clearing each word. A head's set bits
	// are its distinct clusters; clusters partition tokens, so its
	// unique-token count is the sum of their past counts. OR-ed over heads,
	// they are the selected clusters: their past tokens and the
	// always-attended recent window are marked in a bitset over past tokens,
	// whose set bits read out in ascending order (clearing each word) are
	// the selection.
	words := (base + 63) / 64
	if cap(sc.tokenBits) < words {
		sc.tokenBits = make([]uint64, words)
	}
	marks := sc.tokenBits[:words]
	for cw := 0; cw < cwords; cw++ {
		var union uint64
		for h := 0; h < heads; h++ {
			var word uint64
			for w := range active {
				word |= active[w].headBits[h*cwords+cw]
				active[w].headBits[h*cwords+cw] = 0
			}
			union |= word
			for ; word != 0; word &= word - 1 {
				r.stats.PerHead[h].Selected += int64(table.PastCount(cw<<6 | bits.TrailingZeros64(word)))
			}
		}
		for ; union != 0; union &= union - 1 {
			for _, tok := range table.PastTokens(cw<<6 | bits.TrailingZeros64(union)) {
				marks[tok>>6] |= 1 << (uint(tok) & 63)
			}
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

	examined := 0
	for _, rw := range active {
		examined += rw.examined
	}
	r.recordStats(layer, stage, base, len(tokens), nRows, examined, nCands)
	return tokens
}

// selectRows runs rows [lo, hi) on one worker. Each row scores its query
// segment against its kv head's mirrored representative keys (the KVPU's
// Q x RepKey^T), scaled by invSqrt, which also yields the row's maximum,
// and exp-normalises the scores into its massData row, so WiCSum
// accumulates attention mass; that pass also returns the row's weighted
// total, min and max (the WTU's preprocess step). rw's scratch then
// thresholds the row (the WTU), and its clusters are set in rw's bitset for
// the row's head. No pass re-reads a row to reduce it.
//
//vrex:noalloc
func (r *ReSV) selectRows(sc *layerScratch, rw *rowWorker, lo, hi, nCands int, invSqrt float32) {
	headDim, heads := r.modelCfg.HeadDim(), r.modelCfg.Heads
	group := heads / r.modelCfg.KVHeads
	cwords := (nCands + 63) / 64
	examined := 0
	for row := lo; row < hi; row++ {
		h := row % heads
		mass := sc.massData[row*nCands : (row+1)*nCands]
		maxv := mathx.ScoreKeys(mass, sc.q64[row*headDim:(row+1)*headDim], sc.rep64[h/group][:nCands*headDim], invSqrt)
		total, minv, maxm := mathx.ExpNormalizeWeighted(mass, mass, maxv, sc.weights)
		rw.ws.Reset()
		sel := rw.ws.Select(mass, sc.weights, r.cfg.ThWics, total, minv, maxm)
		hb := rw.headBits[h*cwords : (h+1)*cwords]
		for _, ci := range sel.Selected {
			hb[ci>>6] |= 1 << (uint(ci) & 63)
		}
		examined += sel.Examined
	}
	rw.examined = examined
}

// growMirror returns m grown to n values, preserving its contents.
func growMirror(m []float64, n int) []float64 {
	if cap(m) < n {
		m = append(m[:cap(m)], make([]float64, n-cap(m))...)
	}
	return m[:n]
}

// growFloats returns a length-n float64 buffer, reusing buf's storage when
// it is large enough.
//
//vrex:noalloc
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// recordStats folds one call's counts into the stage, per-layer and per-head
// candidate statistics (SelectTokens adds the per-head selections as it reads
// them out). The examined fraction is the call's examined entries over its
// rows x nCands score entries.
func (r *ReSV) recordStats(layer int, stage model.Stage, base, selectedTokens, rows, examined, nCands int) {
	ss := r.stats.stage(stage)
	ss.SelectedTokens += int64(selectedTokens)
	ss.CandidateTokens += int64(base)
	ss.Rows += int64(rows)
	if rows > 0 {
		ss.ExaminedFraction += float64(examined) / float64(rows*nCands)
	}
	ss.Calls++

	r.stats.PerLayer[layer].Selected += int64(selectedTokens)
	r.stats.PerLayer[layer].Candidate += int64(base)
	for h := range r.stats.PerHead {
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
