package hashbit

// Cluster is one row of the hash cluster (HC) table: a group of tokens whose
// key signatures are within Th_hd Hamming distance of the cluster
// representative. RepKey is the running mean of member keys (Key_cluster in
// the paper) and is what WiCSum scores against; TokenIdxs maps the cluster
// back to the original token indices for retrieval.
type Cluster struct {
	ID        int
	TokenIdxs []int
	// RepSig is the cluster's representative hash-bit pattern (the signature
	// of the first member; kept stable so streaming assignment is cheap).
	RepSig Signature
	// RepKey is the element-wise mean of all member key vectors.
	RepKey []float32
	// pastLen is the number of leading TokenIdxs below the table's past
	// boundary (see HCTable.AdvancePast). TokenIdxs is sorted ascending under
	// streaming insertion, so the past members are exactly a prefix.
	pastLen int
	// pending marks membership in the table's dirty list: the cluster has
	// absorbed a token at or beyond the current past boundary since the last
	// AdvancePast (so its pastLen cursor and RepKey may still move).
	pending bool
}

// addMember appends a token and folds its key into the running mean.
func (c *Cluster) addMember(tokenIdx int, key []float32) {
	n := float32(len(c.TokenIdxs))
	for j, v := range key {
		c.RepKey[j] = (float32(c.RepKey[j]*n) + v) / (n + 1)
	}
	c.TokenIdxs = append(c.TokenIdxs, tokenIdx)
}

// HCTable is the streaming hash cluster table maintained per decoder layer.
// Each arriving frame's tokens are assigned to the nearest existing cluster
// (by signature Hamming distance) if within the threshold, otherwise they
// found a new cluster.
//
// Beyond membership, the table keeps the KVPU's candidate bookkeeping up to
// date incrementally: AdvancePast moves a "past boundary" forward as frames
// arrive, maintaining per-cluster past-token counts and the candidate prefix
// in O(new tokens + touched clusters) instead of rescanning every cluster
// per frame.
type HCTable struct {
	// ThHD is Th_hd, the Hamming distance threshold for joining a cluster.
	ThHD int
	// Clusters in creation order; Cluster.ID is the index.
	Clusters []*Cluster
	// nTokens is the total number of tokens ever inserted.
	nTokens int

	// pastBoundary is the token index below which tokens count as "past"
	// (the base of the chunk currently being processed).
	pastBoundary int
	// numPast is the number of leading clusters with at least one past
	// member. Streaming insertion founds clusters with non-decreasing token
	// indices, so these clusters are exactly Clusters[:numPast] — the
	// candidate set SelectTokens scores.
	numPast int
	// dirty lists cluster IDs whose pastLen cursor is not yet caught up with
	// their membership (they hold tokens at or beyond pastBoundary).
	dirty []int
	// maxToken guards the sorted-TokenIdxs invariant the incremental
	// bookkeeping relies on.
	maxToken int
	// unordered records that tokens were inserted out of order; the past
	// tracking then refuses to run rather than silently miscount.
	unordered bool
}

// NewHCTable creates an empty table with Hamming threshold thHD.
func NewHCTable(thHD int) *HCTable {
	if thHD < 0 {
		panic("hashbit: negative Hamming threshold")
	}
	return &HCTable{ThHD: thHD, maxToken: -1}
}

// Reset returns the table to its empty state, retaining allocated capacity
// (the cluster slice and the dirty list) for the next session.
func (t *HCTable) Reset() {
	clear(t.Clusters) // drop the old session's cluster payloads, keep capacity
	t.Clusters = t.Clusters[:0]
	t.nTokens = 0
	t.pastBoundary = 0
	t.numPast = 0
	t.dirty = t.dirty[:0]
	t.maxToken = -1
	t.unordered = false
}

// NumClusters returns the current cluster count.
func (t *HCTable) NumClusters() int { return len(t.Clusters) }

// AvgTokensPerCluster returns the mean cluster occupancy (the paper reports
// an average of 32 tokens per cluster on COIN).
func (t *HCTable) AvgTokensPerCluster() float64 {
	if len(t.Clusters) == 0 {
		return 0
	}
	return float64(t.nTokens) / float64(len(t.Clusters))
}

// noteMember records bookkeeping shared by every insertion path: the token
// counter, the ordering guard and the dirty list (the new member
// sits at or beyond the past boundary, so its cluster's cursor is stale).
func (t *HCTable) noteMember(c *Cluster, tokenIdx int) {
	if tokenIdx <= t.maxToken {
		t.unordered = true
	} else {
		t.maxToken = tokenIdx
	}
	if !c.pending {
		c.pending = true
		t.dirty = append(t.dirty, c.ID)
	}
	t.nTokens++
}

// Insert assigns one token (global index tokenIdx, key vector key, signature
// sig) to the nearest cluster within ThHD, creating a new cluster if none
// qualifies. It returns the cluster ID and the Hamming distance to the chosen
// representative (0 for a newly created cluster).
func (t *HCTable) Insert(tokenIdx int, key []float32, sig Signature) (clusterID, dist int) {
	best, bestDist := -1, t.ThHD // strict: only d < ThHD joins
	for _, c := range t.Clusters {
		d := Hamming(sig, c.RepSig)
		if d < bestDist {
			best, bestDist = c.ID, d
		}
	}
	if best >= 0 {
		c := t.Clusters[best]
		c.addMember(tokenIdx, key)
		t.noteMember(c, tokenIdx)
		return best, bestDist
	}
	id, _ := t.insertNewCluster(tokenIdx, key, sig)
	return id, 0
}

// AdvancePast declares every token with index < boundary "past": eligible as
// a retrieval candidate for the chunk starting at boundary. The update is
// incremental — only clusters that absorbed tokens since the previous call
// (the dirty list) have their past cursors advanced, and the candidate prefix
// grows monotonically — so steady-state cost is O(new tokens + touched
// clusters), independent of the total cluster count.
//
// Boundaries only move forward within a session (streaming prefill; Reset
// returns the boundary to 0): a boundary below the last one panics. The
// incremental bookkeeping also requires monotonically increasing token
// indices and panics if tokens were inserted out of order.
//
//vrex:noalloc
func (t *HCTable) AdvancePast(boundary int) {
	if boundary == t.pastBoundary {
		return
	}
	if t.unordered {
		panic("hashbit: AdvancePast requires monotonically increasing token insertion")
	}
	if boundary < t.pastBoundary {
		panic("hashbit: AdvancePast boundary moved backwards")
	}
	keep := t.dirty[:0]
	for _, id := range t.dirty {
		c := t.Clusters[id]
		for c.pastLen < len(c.TokenIdxs) && c.TokenIdxs[c.pastLen] < boundary {
			c.pastLen++
		}
		if c.pastLen < len(c.TokenIdxs) {
			keep = append(keep, id)
		} else {
			c.pending = false
		}
	}
	t.dirty = keep
	// Founding token indices are non-decreasing in cluster ID, so the
	// candidate set stays a prefix of the cluster list.
	for t.numPast < len(t.Clusters) && t.Clusters[t.numPast].TokenIdxs[0] < boundary {
		t.numPast++
	}
	t.pastBoundary = boundary
}

// PastClusters returns how many leading clusters hold at least one past
// token, as of the last AdvancePast: Clusters[:PastClusters()] is the
// candidate set for WiCSum scoring.
func (t *HCTable) PastClusters() int { return t.numPast }

// PastCount returns how many of cluster id's members are past tokens, as of
// the last AdvancePast.
func (t *HCTable) PastCount(id int) int { return t.Clusters[id].pastLen }

// PastTokens returns cluster id's past members (those below the last
// AdvancePast boundary). The returned slice aliases the cluster's membership
// list and must not be mutated.
func (t *HCTable) PastTokens(id int) []int {
	c := t.Clusters[id]
	return c.TokenIdxs[:c.pastLen]
}

// PendingClusters returns the IDs of clusters that absorbed tokens since the
// last AdvancePast (their RepKey running means may have moved). The slice
// aliases internal state: read it before calling AdvancePast and do not
// retain it.
func (t *HCTable) PendingClusters() []int { return t.dirty }

// insertNewCluster founds a cluster unconditionally and returns (id, 0).
func (t *HCTable) insertNewCluster(tokenIdx int, key []float32, sig Signature) (int, int) {
	c := &Cluster{
		ID:        len(t.Clusters),
		TokenIdxs: []int{tokenIdx},
		RepSig:    sig.Clone(),
		RepKey:    append([]float32(nil), key...),
	}
	t.Clusters = append(t.Clusters, c)
	t.noteMember(c, tokenIdx)
	return c.ID, 0
}
