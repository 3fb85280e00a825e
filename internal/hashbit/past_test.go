package hashbit

import (
	"reflect"
	"slices"
	"testing"

	"vrex/internal/mathx"
	"vrex/internal/tensor"
)

// addFrames streams nFrames x tokensPerFrame random keys through a clusterer
// and returns it.
func addFrames(t *testing.T, nFrames, tokensPerFrame, dim int, seed uint64) *Clusterer {
	t.Helper()
	rng := mathx.NewRNG(seed)
	c := NewClusterer(dim, 32, 7, rng.Split())
	for f := 0; f < nFrames; f++ {
		keys := tensor.NewMatrix(tokensPerFrame, dim)
		keys.Randomize(rng, 1)
		c.AddFrame(keys, f*tokensPerFrame)
	}
	return c
}

// TestAdvancePastMatchesRescan checks the incremental candidate bookkeeping
// against a brute-force rescan at every frame boundary.
func TestAdvancePastMatchesRescan(t *testing.T) {
	const frames, perFrame, dim = 8, 6, 32
	rng := mathx.NewRNG(51)
	c := NewClusterer(dim, 32, 7, rng.Split())
	for f := 0; f < frames; f++ {
		keys := tensor.NewMatrix(perFrame, dim)
		keys.Randomize(rng, 1)
		c.AddFrame(keys, f*perFrame)
		boundary := f * perFrame // tokens of this frame are not yet past
		tab := c.Table
		tab.AdvancePast(boundary)
		// Brute force: count past members per cluster.
		wantPastClusters := 0
		for id, cl := range tab.Clusters {
			past := 0
			for _, tok := range cl.TokenIdxs {
				if tok < boundary {
					past++
				}
			}
			if past > 0 {
				if id != wantPastClusters {
					t.Fatalf("frame %d: candidate clusters are not a prefix (cluster %d)", f, id)
				}
				wantPastClusters++
			}
			if got := tab.PastCount(id); got != past {
				t.Fatalf("frame %d cluster %d: PastCount=%d, want %d", f, id, got, past)
			}
			if got := len(tab.PastTokens(id)); got != past {
				t.Fatalf("frame %d cluster %d: PastTokens len=%d, want %d", f, id, got, past)
			}
		}
		if got := tab.PastClusters(); got != wantPastClusters {
			t.Fatalf("frame %d: PastClusters=%d, want %d", f, got, wantPastClusters)
		}
	}
}

// TestAdvancePastRewind pins the forward-only contract: a boundary below the
// last one panics instead of recounting the past, and Reset returns the
// boundary to 0.
func TestAdvancePastRewind(t *testing.T) {
	c := addFrames(t, 4, 5, 16, 52)
	tab := c.Table
	tab.AdvancePast(20)
	if tab.PastClusters() != tab.NumClusters() {
		t.Fatal("all clusters should be past at the final boundary")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("AdvancePast(5) after AdvancePast(20): expected panic")
			}
		}()
		tab.AdvancePast(5)
	}()
	// A new session after Reset advances from 0 again.
	tab.Reset()
	keys := tensor.NewMatrix(5, 16)
	keys.Randomize(mathx.NewRNG(53), 1)
	c.AddFrame(keys, 0)
	tab.AdvancePast(5)
	total := 0
	for id := 0; id < tab.PastClusters(); id++ {
		total += tab.PastCount(id)
	}
	if total != 5 {
		t.Fatalf("past tokens after Reset = %d, want 5", total)
	}
}

// TestAdvancePastUnorderedPanics pins the documented contract: the
// incremental bookkeeping refuses to run over out-of-order insertion.
func TestAdvancePastUnorderedPanics(t *testing.T) {
	tab := NewHCTable(1)
	sig := make(Signature, 1)
	tab.Insert(5, []float32{0}, sig)
	tab.Insert(3, []float32{0}, sig) // out of order
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tab.AdvancePast(10)
}

// TestHCTableResetBehavesFresh: a reset table must be indistinguishable from
// a new one.
func TestHCTableResetBehavesFresh(t *testing.T) {
	rng := mathx.NewRNG(53)
	c := NewClusterer(16, 32, 7, rng.Split())
	keys := tensor.NewMatrix(10, 16)
	keys.Randomize(rng, 1)
	c.AddFrame(keys, 0)
	c.Table.AdvancePast(10)
	c.Table.Reset()
	if c.Table.NumClusters() != 0 || c.Table.nTokens != 0 || c.Table.PastClusters() != 0 {
		t.Fatal("reset table not empty")
	}
	c.AddFrame(keys, 0)
	if !partitions(c.Table, 0, 10) {
		t.Fatal("reset table misassigns tokens")
	}
}

// partitions reports whether the table's clusters hold every token in
// [lo, hi) exactly once and nothing else.
func partitions(tab *HCTable, lo, hi int) bool {
	seen := make(map[int]bool)
	for _, cl := range tab.Clusters {
		for _, tok := range cl.TokenIdxs {
			if tok < lo || tok >= hi || seen[tok] {
				return false
			}
			seen[tok] = true
		}
	}
	return len(seen) == hi-lo
}

// TestClustererResetRedrawsIdentically: Reset with the same rng stream as
// construction must reproduce the exact clustering.
func TestClustererResetRedrawsIdentically(t *testing.T) {
	rng1 := mathx.NewRNG(54)
	c := NewClusterer(24, 32, 7, rng1.Split())
	keys := tensor.NewMatrix(12, 24)
	keys.Randomize(mathx.NewRNG(55), 1)
	c.AddFrame(keys, 0)
	first := tableState(c.Table)

	rng2 := mathx.NewRNG(54)
	c.Reset(rng2.Split())
	c.AddFrame(keys, 0)
	if second := tableState(c.Table); !reflect.DeepEqual(first, second) {
		t.Fatalf("reset clusterer diverges from fresh construction:\n%v\n%v", first, second)
	}
}

// tableState copies each cluster's membership, signature and
// representative key, in cluster order.
func tableState(tab *HCTable) []Cluster {
	out := make([]Cluster, len(tab.Clusters))
	for i, cl := range tab.Clusters {
		out[i] = Cluster{ID: cl.ID, TokenIdxs: slices.Clone(cl.TokenIdxs),
			RepSig: slices.Clone(cl.RepSig), RepKey: slices.Clone(cl.RepKey)}
	}
	return out
}

// TestPastScanSteadyStateAllocFree pins the candidate-scan allocation bound:
// once the boundary is caught up, re-reading the candidate set (the per-frame
// work SelectTokens does) allocates nothing.
func TestPastScanSteadyStateAllocFree(t *testing.T) {
	c := addFrames(t, 6, 8, 32, 56)
	tab := c.Table
	tab.AdvancePast(40)
	allocs := testing.AllocsPerRun(100, func() {
		tab.AdvancePast(40)
		total := 0
		for ci := 0; ci < tab.PastClusters(); ci++ {
			total += tab.PastCount(ci)
		}
		if total != 40 {
			t.Fatal("past token count wrong")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state candidate scan allocates %v times per call, want 0", allocs)
	}
}
