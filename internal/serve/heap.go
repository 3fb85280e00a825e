package serve

// minHeap is a binary min-heap of values ordered by their before method.
// Values are stored unboxed, never converted to an interface, so a push/pop
// pair at steady capacity does not allocate. The engine's orders are total
// — every event and ready item carries a unique seq — so the pop order is
// fully determined by before, whatever the internal layout.
type minHeap[T interface{ before(T) bool }] []T

// init restores the heap invariant after arbitrary edits to the slice.
func (h minHeap[T]) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// push adds x.
//
//vrex:noalloc
func (h *minHeap[T]) push(x T) {
	//vrex:alloc-ok amortized growth; at steady capacity append reuses the array
	*h = append(*h, x)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if !s[j].before(s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// pop removes and returns the least value; the heap must be non-empty.
//
//vrex:noalloc
func (h *minHeap[T]) pop() T {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	*h = s[:n]
	h.down(0)
	return top
}

// down sifts the value at i toward the leaves.
func (h minHeap[T]) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		j := l
		if r := l + 1; r < len(h) && h[r].before(h[l]) {
			j = r
		}
		if !h[j].before(h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
