// Package kvcache implements the KV cache substrate for streaming video
// LLMs: an append-only per-layer key/value store. Retrieval policies read it
// in place; what moving KV between memory tiers costs is priced by the
// hardware simulator (hwsim) and the serving engine's page pool (kvpool),
// not here.
package kvcache

// LayerCache is the KV cache of a single decoder layer. Keys and values are
// stored row-per-token with dimension Dim (= kv-heads x head-dim,
// head-concatenated). Rows are append-only and never deleted (retrieval
// preserves all prior context — the property that distinguishes retrieval
// from pruning).
type LayerCache struct {
	Dim  int
	keys []float32
	vals []float32
	n    int
}

// NewLayerCache creates an empty cache for dim-wide KV rows.
func NewLayerCache(dim int) *LayerCache {
	if dim <= 0 {
		panic("kvcache: non-positive dim")
	}
	return &LayerCache{Dim: dim}
}

// Reset empties the cache in place, keeping its storage for the next
// session: views returned by Key, KeySpan and Value before it alias rows
// that later Appends overwrite.
func (c *LayerCache) Reset() {
	c.keys, c.vals, c.n = c.keys[:0], c.vals[:0], 0
}

// Len returns the number of cached tokens.
func (c *LayerCache) Len() int { return c.n }

// Append stores one token's key and value rows (each of length Dim) and
// returns the token's index.
func (c *LayerCache) Append(key, val []float32) int {
	if len(key) != c.Dim || len(val) != c.Dim {
		panic("kvcache: row dimension mismatch")
	}
	c.keys = append(c.keys, key...)
	c.vals = append(c.vals, val...)
	c.n++
	return c.n - 1
}

// Key returns a view of token i's key row.
func (c *LayerCache) Key(i int) []float32 { return c.keys[i*c.Dim : (i+1)*c.Dim] }

// KeySpan returns a view of the contiguous key rows for tokens
// [base, base+n): n*Dim values, row-major. Retrieval policies cluster
// directly over this span instead of copying rows out of the cache.
func (c *LayerCache) KeySpan(base, n int) []float32 {
	return c.keys[base*c.Dim : (base+n)*c.Dim]
}

// Value returns a view of token i's value row.
func (c *LayerCache) Value(i int) []float32 { return c.vals[i*c.Dim : (i+1)*c.Dim] }
