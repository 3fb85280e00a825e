package model

import (
	"testing"

	"vrex/internal/kvcache"
	"vrex/internal/mathx"
	"vrex/internal/tensor"
)

// BenchmarkAttention times one layer's attention at resv-stream's operating
// point on the default model (4 heads, head dim 16): a 10-token chunk whose
// queries attend to 250 selected past tokens of 500, plus the chunk's own
// tokens causally. The cache and selection are fixed and attention keeps no
// state between calls beyond its reused buffers, its output included, so
// ns/op does not depend on b.N. It reports ns per scored (query head, candidate) pair beside ns/op.
func BenchmarkAttention(b *testing.B) {
	const base, chunk = 500, 10
	cfg := DefaultConfig()
	m := New(cfg)
	rng := mathx.NewRNG(3)
	cache := kvcache.NewLayerCache(cfg.KVDim())
	row := tensor.NewMatrix(2, cfg.KVDim())
	for i := 0; i < base+chunk; i++ {
		row.Randomize(rng, 1)
		cache.Append(row.Row(0), row.Row(1))
	}
	q := testInput(chunk, cfg.Dim, 4)
	var sel []int
	for tok := 0; tok < base; tok += 2 {
		sel = append(sel, tok)
	}
	pairs := 0
	for i := 0; i < chunk; i++ {
		pairs += cfg.Heads * (len(sel) + i + 1)
	}
	m.attention(q, cache, sel, base, chunk, nil) // grow the reused buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.attention(q, cache, sel, base, chunk, nil)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
}
