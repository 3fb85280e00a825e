package serve

// The engine's two queues are concrete binary min-heaps, one per value type,
// so every comparison is a direct call the compiler inlines. Values are
// stored unboxed, never converted to an interface, so a push/pop pair at
// steady capacity does not allocate. Both orders are total — no two values a
// heap holds at once tie on all their ordering fields — so the pop order is
// fully determined by before, whatever the internal layout.

// eventHeap is the run's event queue, ordered by event.before.
type eventHeap []event

// init restores the heap invariant after arbitrary edits to the slice.
func (h eventHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// push adds x.
//
//vrex:noalloc
func (h *eventHeap) push(x event) {
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

// pop removes and returns the least event; the heap must be non-empty.
//
//vrex:noalloc
func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	*h = s[:n]
	h.down(0)
	return top
}

// down sifts the event at i toward the leaves.
func (h eventHeap) down(i int) {
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

// readyHeap is one device's ready queue, ordered by readyItem.before.
type readyHeap []readyItem

// init restores the heap invariant after arbitrary edits to the slice.
func (h readyHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// push adds x.
//
//vrex:noalloc
func (h *readyHeap) push(x readyItem) {
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

// pop removes and returns the least item; the heap must be non-empty.
//
//vrex:noalloc
func (h *readyHeap) pop() readyItem {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	*h = s[:n]
	h.down(0)
	return top
}

// down sifts the item at i toward the leaves.
func (h readyHeap) down(i int) {
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
