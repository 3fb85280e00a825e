package kvcache

import "testing"

func row(dim int, fill float32) []float32 {
	r := make([]float32, dim)
	for i := range r {
		r[i] = fill
	}
	return r
}

func TestLayerCacheAppendAndViews(t *testing.T) {
	c := NewLayerCache(4)
	if c.Len() != 0 {
		t.Fatal("new cache not empty")
	}
	i0 := c.Append(row(4, 1), row(4, 2))
	i1 := c.Append(row(4, 3), row(4, 4))
	if i0 != 0 || i1 != 1 || c.Len() != 2 {
		t.Fatal("append indices wrong")
	}
	if c.Key(0)[0] != 1 || c.Value(0)[0] != 2 || c.Key(1)[0] != 3 || c.Value(1)[0] != 4 {
		t.Fatal("row views wrong")
	}
	span := c.KeySpan(0, 2)
	if len(span) != 8 || span[0] != 1 || span[4] != 3 {
		t.Fatalf("key span wrong: %v", span)
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
