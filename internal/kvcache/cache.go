// Package kvcache implements the KV cache substrate for streaming video
// LLMs: an append-only per-layer key/value store, the hierarchical
// device / CPU / storage tiering that KV cache retrieval systems rely on
// (Sec. II-B of the paper: offloading, selection, pre-fetching), transfer
// accounting, and the KVMU's cluster-wise memory layout that turns scattered
// token fetches into contiguous segment transfers (Fig. 12).
package kvcache

import "fmt"

// Tier identifies where a token's KV entry currently resides.
type Tier uint8

const (
	// TierDevice is the accelerator/GPU local memory (fast, small).
	TierDevice Tier = iota
	// TierHost is CPU DRAM reachable over PCIe.
	TierHost
	// TierStorage is NVMe storage (edge deployments offload here).
	TierStorage
)

func (t Tier) String() string {
	switch t {
	case TierDevice:
		return "device"
	case TierHost:
		return "host"
	case TierStorage:
		return "storage"
	default:
		return fmt.Sprintf("tier(%d)", uint8(t))
	}
}

// LayerCache is the KV cache of a single decoder layer. Keys and values are
// stored row-per-token with dimension Dim (= kv-heads x head-dim,
// head-concatenated). Rows are append-only; eviction changes a row's Tier
// but never deletes data (retrieval preserves all prior context — the
// property that distinguishes retrieval from pruning).
type LayerCache struct {
	Dim  int
	keys []float32
	vals []float32
	tier []Tier
}

// NewLayerCache creates an empty cache for dim-wide KV rows.
func NewLayerCache(dim int) *LayerCache {
	if dim <= 0 {
		panic("kvcache: non-positive dim")
	}
	return &LayerCache{Dim: dim}
}

// Len returns the number of cached tokens.
func (c *LayerCache) Len() int { return len(c.tier) }

// Append stores one token's key and value rows (each of length Dim) on the
// device tier and returns the token's index.
func (c *LayerCache) Append(key, val []float32) int {
	if len(key) != c.Dim || len(val) != c.Dim {
		panic("kvcache: row dimension mismatch")
	}
	c.keys = append(c.keys, key...)
	c.vals = append(c.vals, val...)
	c.tier = append(c.tier, TierDevice)
	return len(c.tier) - 1
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

// TierOf returns where token i resides.
func (c *LayerCache) TierOf(i int) Tier { return c.tier[i] }

// SetTier moves token i to tier t (bookkeeping only; data stays addressable
// so the functional model can always compute attention).
func (c *LayerCache) SetTier(i int, t Tier) { c.tier[i] = t }

// ResidentCount returns how many tokens are on the device tier.
func (c *LayerCache) ResidentCount() int {
	n := 0
	for _, t := range c.tier {
		if t == TierDevice {
			n++
		}
	}
	return n
}
