package serve

// The engine has two queues. The run's event queue is a concrete binary
// min-heap: every comparison is a direct call the compiler inlines, and
// events are stored unboxed, so a push/pop pair at steady capacity does not
// allocate. A device's ready queue is one sorted lane per stream class
// instead: arrivals enqueue in event order and every built-in policy keys
// one class's arrivals in that order (see Scheduler), so a push lands at its
// lane's tail and a pop takes the least lane head — O(1) per operation for
// a fixed class count, and allocation-free at steady capacity too. Both
// orders are total — no two values a queue holds at once tie on all their
// ordering fields — so the pop order is fully determined by before,
// whatever the internal layout.

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

// readyQueue is one device's ready queue, ordered by readyItem.before: one
// lane per stream class, each sorted by before, so the least item is the
// least lane head.
type readyQueue struct {
	lanes []readyLane
	// n counts the items queued across all lanes.
	n int
}

// readyLane is one class's queued items in before order; items[head:] are
// live.
type readyLane struct {
	items []readyItem
	head  int
}

// newReadyQueue returns an empty queue with one lane per class.
func newReadyQueue(classes int) readyQueue {
	return readyQueue{lanes: make([]readyLane, classes)}
}

// push adds it to class's lane. An item that sorts before the lane's tail
// (a custom Scheduler's key, or the older items moveReady brings) shifts
// toward the head to its exact place.
//
//vrex:noalloc
func (q *readyQueue) push(it readyItem, class int) {
	l := &q.lanes[class]
	if l.head > 0 && len(l.items) == cap(l.items) {
		// Move the live items to the front before the array would grow.
		n := copy(l.items, l.items[l.head:])
		l.items, l.head = l.items[:n], 0
	}
	//vrex:alloc-ok amortized growth; at steady capacity append reuses the array
	l.items = append(l.items, it)
	s := l.items
	j := len(s) - 1
	for ; j > l.head && it.before(s[j-1]); j-- {
		s[j] = s[j-1]
	}
	s[j] = it
	q.n++
}

// least returns the lane whose head is the least item; the queue must be
// non-empty.
func (q *readyQueue) least() *readyLane {
	var best *readyLane
	for i := range q.lanes {
		l := &q.lanes[i]
		if l.head < len(l.items) && (best == nil || l.items[l.head].before(best.items[best.head])) {
			best = l
		}
	}
	return best
}

// peek returns the least item without removing it; the queue must be
// non-empty.
func (q *readyQueue) peek() readyItem {
	l := q.least()
	return l.items[l.head]
}

// pop removes and returns the least item; the queue must be non-empty.
//
//vrex:noalloc
func (q *readyQueue) pop() readyItem {
	l := q.least()
	it := l.items[l.head]
	l.head++
	if l.head == len(l.items) {
		l.items, l.head = l.items[:0], 0
	}
	q.n--
	return it
}

// move transfers session s's items, all in class's lane, to dst in before
// order, and returns how many moved.
func (q *readyQueue) move(s, class int, dst *readyQueue) int {
	l := &q.lanes[class]
	kept := l.items[:l.head]
	for _, it := range l.items[l.head:] {
		if it.session == s {
			dst.push(it, class)
		} else {
			kept = append(kept, it)
		}
	}
	moved := len(l.items) - len(kept)
	l.items = kept
	if l.head == len(l.items) {
		l.items, l.head = l.items[:0], 0
	}
	q.n -= moved
	return moved
}
