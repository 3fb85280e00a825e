package kvcache

import "slices"

// Layout maps token indices to storage addresses and reports how many
// contiguous segments a set of tokens spans. Fewer segments means fewer,
// larger DMA transfers and better PCIe utilisation — the KVMU's cluster-wise
// memory mapping exists precisely to reduce this number (Fig. 12).
type Layout interface {
	// Segments returns the number of maximal contiguous address runs
	// covering the given tokens.
	Segments(tokens []int) int
}

// TokenOrderLayout stores tokens at their arrival index (the conventional
// GPU layout). Tokens selected by retrieval are scattered across frames, so
// fetches fragment into many segments.
//
//vrex:testonly the baseline layout that ClusterLayout's segment tests compare against
type TokenOrderLayout struct{}

// Segments implements Layout: runs of consecutive token indices.
func (TokenOrderLayout) Segments(tokens []int) int {
	return runsOf(tokens, func(t int) int { return t })
}

// ClusterLayout stores tokens grouped by hash cluster: all members of a
// cluster occupy consecutive addresses. The KVMU reorders entries to this
// layout as frames arrive ("KVMU reorders and stores them in memory
// according to the latest clustering results"), so fetching a selected
// cluster is a single contiguous transfer.
//
// The layout is maintained incrementally: Add appends one token to its
// cluster in O(1), mirroring the HC table's streaming growth, instead of
// rebuilding a token->slot map from the full membership lists every frame.
// Storage addresses are materialised lazily (per Segments call) from the
// cluster sizes.
type ClusterLayout struct {
	// tokCluster and tokPos map a token index to its (cluster, position
	// within cluster) coordinate; tokCluster is -1 for unknown tokens.
	tokCluster []int32
	tokPos     []int32
	// clusterLen holds each cluster's member count.
	clusterLen []int32

	// starts and addrs are reusable scratch for Segments.
	starts []int
	addrs  []int
}

// NewClusterLayout creates an empty cluster layout.
func NewClusterLayout() *ClusterLayout {
	return &ClusterLayout{}
}

// Reset empties the layout, retaining allocated capacity for the next
// session.
func (l *ClusterLayout) Reset() {
	l.tokCluster = l.tokCluster[:0]
	l.tokPos = l.tokPos[:0]
	l.clusterLen = l.clusterLen[:0]
}

// Add appends tokenIdx to clusterID's contiguous run, founding the cluster
// if it is the next unseen ID. Tokens and clusters arrive in the HC table's
// streaming order, so this is the KVMU's per-frame reordering work reduced
// to O(1) bookkeeping per token.
func (l *ClusterLayout) Add(clusterID, tokenIdx int) {
	if tokenIdx < 0 {
		panic("kvcache: negative token index in cluster layout")
	}
	if clusterID < 0 || clusterID > len(l.clusterLen) {
		panic("kvcache: cluster layout IDs must be dense and in creation order")
	}
	if clusterID == len(l.clusterLen) {
		l.clusterLen = append(l.clusterLen, 0)
	}
	for tokenIdx >= len(l.tokCluster) {
		l.tokCluster = append(l.tokCluster, -1)
		l.tokPos = append(l.tokPos, 0)
	}
	l.tokCluster[tokenIdx] = int32(clusterID)
	l.tokPos[tokenIdx] = l.clusterLen[clusterID]
	l.clusterLen[clusterID]++
}

// SetClusters rebuilds the layout from full cluster membership lists
// (cluster-major order). Streaming callers should prefer Add; this remains
// for bulk construction and mirrors the incremental semantics exactly.
//
//vrex:testonly the bulk reference that incremental Add is checked against
func (l *ClusterLayout) SetClusters(clusters [][]int) {
	l.Reset()
	for ci, members := range clusters {
		// Preserve dense cluster IDs even for empty membership lists.
		for ci >= len(l.clusterLen) {
			l.clusterLen = append(l.clusterLen, 0)
		}
		for _, t := range members {
			l.Add(ci, t)
		}
	}
}

// Segments implements Layout: runs of consecutive storage slots. Slot
// addresses are cluster-major (cluster 0's members first, in insertion
// order, then cluster 1's, ...), recovered from the per-cluster sizes.
//
//vrex:noalloc
func (l *ClusterLayout) Segments(tokens []int) int {
	if len(tokens) == 0 {
		return 0
	}
	// Prefix-sum the cluster sizes into start addresses (reused scratch).
	if cap(l.starts) < len(l.clusterLen) {
		l.starts = make([]int, len(l.clusterLen))
	}
	l.starts = l.starts[:len(l.clusterLen)]
	slot := 0
	for c, n := range l.clusterLen {
		l.starts[c] = slot
		slot += int(n)
	}
	if cap(l.addrs) < len(tokens) {
		l.addrs = make([]int, len(tokens))
	}
	l.addrs = l.addrs[:len(tokens)]
	for i, t := range tokens {
		if t >= 0 && t < len(l.tokCluster) && l.tokCluster[t] >= 0 {
			l.addrs[i] = l.starts[l.tokCluster[t]] + int(l.tokPos[t])
		} else {
			// Unknown tokens get isolated virtual slots (spaced by 2 so no
			// two are ever consecutive) so they each count as a segment.
			l.addrs[i] = -2 - 2*t
		}
	}
	return runsOfAddrs(l.addrs)
}

// runsOf counts maximal runs of consecutive addresses after sorting.
func runsOf(tokens []int, addr func(int) int) int {
	if len(tokens) == 0 {
		return 0
	}
	addrs := make([]int, len(tokens))
	for i, t := range tokens {
		addrs[i] = addr(t)
	}
	return runsOfAddrs(addrs)
}

// runsOfAddrs counts maximal runs of consecutive values, sorting in place.
//
//vrex:noalloc
func runsOfAddrs(addrs []int) int {
	slices.Sort(addrs)
	runs := 1
	for i := 1; i < len(addrs); i++ {
		if addrs[i] != addrs[i-1]+1 && addrs[i] != addrs[i-1] {
			runs++
		}
	}
	return runs
}
