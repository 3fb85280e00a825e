package kvcache

import (
	"testing"
	"testing/quick"

	"vrex/internal/mathx"
)

func row(dim int, fill float32) []float32 {
	r := make([]float32, dim)
	for i := range r {
		r[i] = fill
	}
	return r
}

func TestLayerCacheAppendAndViews(t *testing.T) {
	c := NewLayerCache(4)
	i0 := c.Append(row(4, 1), row(4, 2))
	i1 := c.Append(row(4, 3), row(4, 4))
	if i0 != 0 || i1 != 1 || c.Len() != 2 {
		t.Fatal("append indices wrong")
	}
	if c.Key(0)[0] != 1 || c.Value(0)[0] != 2 || c.Key(1)[0] != 3 || c.Value(1)[0] != 4 {
		t.Fatal("row views wrong")
	}
	if c.TierOf(0) != TierDevice {
		t.Fatal("new tokens must start on device")
	}
}

func TestLayerCacheDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLayerCache(4).Append(row(3, 1), row(4, 1))
}

func TestTierString(t *testing.T) {
	if TierDevice.String() != "device" || TierHost.String() != "host" || TierStorage.String() != "storage" {
		t.Fatal("tier names wrong")
	}
	if Tier(9).String() == "" {
		t.Fatal("unknown tier should still format")
	}
}

func TestHierarchyEnforceEvictsOldest(t *testing.T) {
	c := NewLayerCache(2)
	for i := 0; i < 10; i++ {
		c.Append(row(2, float32(i)), row(2, float32(i)))
	}
	h := NewHierarchy(c, 4, TierStorage, 2)
	evicted := h.Enforce()
	if evicted != 6 {
		t.Fatalf("evicted %d, want 6", evicted)
	}
	// Oldest six must be off-device, newest four on device.
	for i := 0; i < 6; i++ {
		if c.TierOf(i) != TierStorage {
			t.Fatalf("token %d should be offloaded", i)
		}
	}
	for i := 6; i < 10; i++ {
		if c.TierOf(i) != TierDevice {
			t.Fatalf("token %d should stay on device", i)
		}
	}
	wantBytes := int64(6 * 2 * 2 * 2) // 6 tokens x 2 rows x dim 2 x 2B
	if h.Log.OffloadBytes != wantBytes {
		t.Fatalf("offload bytes %d, want %d", h.Log.OffloadBytes, wantBytes)
	}
}

func TestHierarchyEnforceNoopUnderCapacity(t *testing.T) {
	c := NewLayerCache(2)
	c.Append(row(2, 0), row(2, 0))
	h := NewHierarchy(c, 4, TierHost, 2)
	if h.Enforce() != 0 || h.Log.OffloadEvents != 0 {
		t.Fatal("under-capacity enforce should be a no-op")
	}
}

func TestHierarchyFetchAccounting(t *testing.T) {
	c := NewLayerCache(2)
	for i := 0; i < 8; i++ {
		c.Append(row(2, 0), row(2, 0))
	}
	h := NewHierarchy(c, 2, TierStorage, 2)
	h.Enforce() // tokens 0..5 offloaded
	log := h.Fetch([]int{0, 1, 2, 7}, TokenOrderLayout{})
	if log.FetchTokens != 3 { // token 7 resident
		t.Fatalf("fetch tokens %d, want 3", log.FetchTokens)
	}
	if log.FetchSegments != 1 { // 0,1,2 contiguous
		t.Fatalf("fetch segments %d, want 1", log.FetchSegments)
	}
	for _, i := range []int{0, 1, 2} {
		if c.TierOf(i) != TierDevice {
			t.Fatal("fetched tokens must be resident")
		}
	}
	// Second fetch of same tokens is free.
	log2 := h.Fetch([]int{0, 1, 2}, TokenOrderLayout{})
	if log2.FetchBytes != 0 {
		t.Fatal("re-fetch of resident tokens must be free")
	}
}

func TestHierarchyRelease(t *testing.T) {
	c := NewLayerCache(2)
	for i := 0; i < 6; i++ {
		c.Append(row(2, 0), row(2, 0))
	}
	h := NewHierarchy(c, 2, TierHost, 2)
	h.Enforce()
	h.Fetch([]int{0, 1}, TokenOrderLayout{})
	h.Release([]int{0, 1}, 4) // pin tokens >= 4
	if c.TierOf(0) != TierHost || c.TierOf(1) != TierHost {
		t.Fatal("released tokens should be demoted")
	}
	h.Fetch([]int{5}, TokenOrderLayout{})
	h.Release([]int{5}, 4)
	if c.TierOf(5) != TierDevice {
		t.Fatal("pinned token must stay on device")
	}
}

func TestHierarchyOffTierValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHierarchy(NewLayerCache(2), 1, TierDevice, 2)
}

func TestTokenOrderLayoutSegments(t *testing.T) {
	l := TokenOrderLayout{}
	cases := []struct {
		tokens []int
		want   int
	}{
		{nil, 0},
		{[]int{5}, 1},
		{[]int{1, 2, 3}, 1},
		{[]int{3, 1, 2}, 1}, // order-insensitive
		{[]int{1, 3, 5}, 3},
		{[]int{1, 2, 10, 11, 20}, 3},
		{[]int{4, 4, 5}, 1}, // duplicates don't split runs
	}
	for _, c := range cases {
		if got := l.Segments(c.tokens); got != c.want {
			t.Errorf("Segments(%v) = %d, want %d", c.tokens, got, c.want)
		}
	}
}

func TestClusterLayoutCoalescesClusterFetch(t *testing.T) {
	l := NewClusterLayout()
	// Cluster 0 holds scattered tokens {0, 7, 14}; cluster 1 holds {3, 10}.
	l.SetClusters([][]int{{0, 7, 14}, {3, 10}})
	if got := l.Segments([]int{0, 7, 14}); got != 1 {
		t.Fatalf("cluster fetch should be 1 segment, got %d", got)
	}
	if got := l.Segments([]int{0, 7, 14, 3, 10}); got != 1 {
		t.Fatalf("adjacent clusters fetch should coalesce to 1 segment, got %d", got)
	}
	// The same tokens under token order are 5 segments.
	if got := (TokenOrderLayout{}).Segments([]int{0, 7, 14, 3, 10}); got != 5 {
		t.Fatalf("token-order segments = %d, want 5", got)
	}
}

func TestClusterLayoutUnknownTokensIsolated(t *testing.T) {
	l := NewClusterLayout()
	l.SetClusters([][]int{{1, 2}})
	if got := l.Segments([]int{1, 2, 99, 100}); got != 3 {
		t.Fatalf("unknown tokens should each be a segment: got %d", got)
	}
}

func TestClusterLayoutRebuild(t *testing.T) {
	l := NewClusterLayout()
	l.SetClusters([][]int{{0, 1}})
	l.SetClusters([][]int{{1}, {0}})
	if got := l.Segments([]int{0, 1}); got != 1 {
		// slots: 1->0, 0->1; both consecutive
		t.Fatalf("rebuilt layout segments = %d, want 1", got)
	}
}

// Property: cluster layout never uses more segments than tokens, and at
// least one segment for non-empty input; fetching whole clusters costs at
// most the number of clusters.
func TestClusterLayoutSegmentBoundsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		nClusters := 1 + rng.Intn(8)
		var clusters [][]int
		token := 0
		for c := 0; c < nClusters; c++ {
			size := 1 + rng.Intn(6)
			var members []int
			for i := 0; i < size; i++ {
				members = append(members, token)
				token++
			}
			clusters = append(clusters, members)
		}
		// Shuffle token ids across clusters to simulate interleaved arrival.
		perm := rng.Perm(token)
		for _, members := range clusters {
			for i := range members {
				members[i] = perm[members[i]]
			}
		}
		l := NewClusterLayout()
		l.SetClusters(clusters)
		// Fetch a random subset of whole clusters.
		var tokens []int
		picked := 0
		for _, members := range clusters {
			if rng.Float64() < 0.5 {
				tokens = append(tokens, members...)
				picked++
			}
		}
		if picked == 0 {
			return true
		}
		segs := l.Segments(tokens)
		return segs >= 1 && segs <= picked && segs <= len(tokens)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTransferLogAdd(t *testing.T) {
	a := TransferLog{OffloadBytes: 1, FetchBytes: 2, FetchTokens: 3, FetchSegments: 4, OffloadEvents: 5}
	b := a
	a.Add(b)
	if a.OffloadBytes != 2 || a.FetchBytes != 4 || a.FetchTokens != 6 || a.FetchSegments != 8 || a.OffloadEvents != 10 {
		t.Fatalf("Add wrong: %+v", a)
	}
}
