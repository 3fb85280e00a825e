package hashbit

import "math/bits"

// Cluster is one row of the hash cluster (HC) table: a group of tokens whose
// key signatures are within Th_hd Hamming distance of the cluster
// representative. RepKey is the running mean of member keys (Key_cluster in
// the paper) and is what WiCSum scores against; TokenIdxs maps the cluster
// back to the original token indices for retrieval. The cluster's
// representative signature lives in the table (HCTable.RepSig).
type Cluster struct {
	ID        int
	TokenIdxs []int
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
	// repSigs holds every cluster's representative hash-bit pattern (the
	// signature of its first member, kept stable so streaming assignment is
	// cheap), sigWords words each, in cluster order: Insert scans one flat
	// array. sigWords is set by the first Insert.
	repSigs  []uint64
	sigWords int
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
// (the cluster slice, the signature array and the dirty list) for the next
// session. The old session's Clusters stay behind the slice's length, and
// insertNewCluster refounds them in order, reusing their TokenIdxs and
// RepKey storage: a *Cluster held from before Reset may change.
func (t *HCTable) Reset() {
	t.Clusters = t.Clusters[:0]
	t.repSigs = t.repSigs[:0]
	t.sigWords = 0
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

// RepSig returns cluster id's representative signature: the signature of
// its first member. The slice aliases the table's signature array; it must
// not be mutated and is valid until the next Reset.
//
//vrex:testonly the tests' view of the flat signature array Insert scans
func (t *HCTable) RepSig(id int) Signature {
	w := t.sigWords
	return t.repSigs[id*w : (id+1)*w : (id+1)*w]
}

// Insert assigns one token (global index tokenIdx, key vector key, signature
// sig) to the nearest cluster within ThHD, creating a new cluster if none
// qualifies. It returns the cluster ID and the Hamming distance to the chosen
// representative (0 for a newly created cluster). Every signature a table
// holds has the same length; the first Insert sets it. The table keeps its
// own copy of sig.
func (t *HCTable) Insert(tokenIdx int, key []float32, sig Signature) (clusterID, dist int) {
	if t.sigWords == 0 {
		t.sigWords = len(sig)
	}
	if len(sig) != t.sigWords || len(sig) == 0 {
		panic("hashbit: signature length mismatch")
	}
	best, bestDist := t.nearest(sig)
	if best >= 0 {
		c := t.Clusters[best]
		c.addMember(tokenIdx, key)
		t.noteMember(c, tokenIdx)
		return best, bestDist
	}
	id, _ := t.insertNewCluster(tokenIdx, key, sig)
	return id, 0
}

// nearest returns the first cluster whose representative signature is at
// the smallest Hamming distance from sig below ThHD (strict: only d < ThHD
// joins), and that distance, or -1 and ThHD if none is. It scans the flat
// signature array in cluster order. One-word signatures (N_hp <= 64, the
// default 32 included) have a loop of their own: BenchmarkHCTableInsert
// reads about a third of the general loop's time per cluster on it.
//
//vrex:noalloc
func (t *HCTable) nearest(sig Signature) (best, bestDist int) {
	best, bestDist = -1, t.ThHD
	if len(sig) == 1 {
		x := sig[0]
		for id, s := range t.repSigs {
			if d := bits.OnesCount64(s ^ x); d < bestDist {
				best, bestDist = id, d
			}
		}
		return best, bestDist
	}
	w := len(sig)
	for id := 0; id*w < len(t.repSigs); id++ {
		if d := Hamming(sig, t.repSigs[id*w:(id+1)*w]); d < bestDist {
			best, bestDist = id, d
		}
	}
	return best, bestDist
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

// insertNewCluster founds a cluster unconditionally and returns (id, 0). A
// cluster left behind the slice's length by Reset is refounded in place.
func (t *HCTable) insertNewCluster(tokenIdx int, key []float32, sig Signature) (int, int) {
	id := len(t.Clusters)
	var c *Cluster
	if id < cap(t.Clusters) {
		c = t.Clusters[:id+1][id]
	}
	if c == nil {
		c = new(Cluster)
	}
	*c = Cluster{ID: id, TokenIdxs: append(c.TokenIdxs[:0], tokenIdx), RepKey: append(c.RepKey[:0], key...)}
	t.Clusters = append(t.Clusters, c)
	t.repSigs = append(t.repSigs, sig...)
	t.noteMember(c, tokenIdx)
	return c.ID, 0
}
