package serve

import (
	"cmp"
	"slices"
	"testing"

	"vrex/internal/mathx"
)

// cmpEvent and cmpReady spell out the two queue orders field by field,
// independently of the before methods under test.
func cmpEvent(a, b event) int {
	return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
}

func cmpReady(a, b readyItem) int {
	return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
}

// checkEventHeapOrder drives random push/pop sequences, then a filter and
// re-init, and requires every pop to return the least remaining event under
// cmpEvent. Each event has a unique seq and draws its time from a small
// range, so ties on it are common.
func checkEventHeapOrder(t *testing.T) {
	rng := mathx.NewRNG(7)
	for trial := 0; trial < 200; trial++ {
		var h eventHeap
		var ref []event
		popCheck := func() {
			t.Helper()
			slices.SortFunc(ref, cmpEvent)
			if got := h.pop(); got != ref[0] {
				t.Fatalf("trial %d: popped %+v, want %+v", trial, got, ref[0])
			}
			ref = ref[1:]
		}
		for _, seq := range rng.Perm(64) {
			if len(ref) > 0 && rng.Intn(3) == 0 {
				popCheck()
			}
			x := event{at: float64(rng.Intn(4)), session: rng.Intn(5), seq: seq}
			h.push(x)
			ref = append(ref, x)
		}
		// Filter in place and re-init.
		drop := func(e event) bool { return e.session == 0 }
		h = slices.DeleteFunc(h, drop)
		h.init()
		ref = slices.DeleteFunc(ref, drop)
		for len(ref) > 0 {
			popCheck()
		}
		if len(h) != 0 {
			t.Fatalf("trial %d: %d events left after the reference drained", trial, len(h))
		}
	}
}

// checkReadyQueueOrder drives two readyQueues of 1 to 3 lanes through
// random pushes interleaved with pops and peeks, then re-homes one session
// from one queue to the other as moveReady does, and requires every pop to
// return the least remaining item under cmpReady. Each session lives in one
// random lane; keys and arrival times are drawn from small ranges
// independently of push order, so a lane's pushes arrive out of order and
// take the shift path.
func checkReadyQueueOrder(t *testing.T) {
	rng := mathx.NewRNG(11)
	for trial := 0; trial < 200; trial++ {
		lanes := 1 + rng.Intn(3)
		laneOf := make([]int, 5)
		for s := range laneOf {
			laneOf[s] = rng.Intn(lanes)
		}
		qs := [2]readyQueue{newReadyQueue(lanes), newReadyQueue(lanes)}
		var refs [2][]readyItem
		least := func(i int) readyItem {
			t.Helper()
			if qs[i].n != len(refs[i]) {
				t.Fatalf("trial %d queue %d: n = %d, want %d", trial, i, qs[i].n, len(refs[i]))
			}
			slices.SortFunc(refs[i], cmpReady)
			return refs[i][0]
		}
		popCheck := func(i int) {
			t.Helper()
			want := least(i)
			if got := qs[i].pop(); got != want {
				t.Fatalf("trial %d queue %d: popped %+v, want %+v", trial, i, got, want)
			}
			refs[i] = refs[i][1:]
		}
		for _, seq := range rng.Perm(96) {
			i := rng.Intn(2)
			if len(refs[i]) > 0 {
				switch rng.Intn(6) {
				case 0, 1:
					popCheck(i)
				case 2:
					if got, want := qs[i].peek(), least(i); got != want {
						t.Fatalf("trial %d queue %d: peeked %+v, want %+v", trial, i, got, want)
					}
				}
			}
			s := rng.Intn(len(laneOf))
			it := readyItem{key: float64(rng.Intn(3)), at: float64(rng.Intn(4)), session: s, seq: seq}
			qs[i].push(it, laneOf[s])
			refs[i] = append(refs[i], it)
		}
		// Re-home session 0 from queue 0 to queue 1.
		moving := func(it readyItem) bool { return it.session == 0 }
		want := 0
		for _, it := range refs[0] {
			if moving(it) {
				refs[1] = append(refs[1], it)
				want++
			}
		}
		refs[0] = slices.DeleteFunc(refs[0], moving)
		if got := qs[0].move(0, laneOf[0], &qs[1]); got != want {
			t.Fatalf("trial %d: moved %d items, want %d", trial, got, want)
		}
		for i := range qs {
			for len(refs[i]) > 0 {
				popCheck(i)
			}
			if qs[i].n != 0 {
				t.Fatalf("trial %d queue %d: n = %d after the reference drained", trial, i, qs[i].n)
			}
		}
	}
}

func TestMinHeapPopsInSortOrder(t *testing.T) {
	t.Run("event", checkEventHeapOrder)
	t.Run("readyItem", checkReadyQueueOrder)
}

// TestMinHeapSteadyStateAllocFree: once a queue's backing arrays have
// grown, a push/pop pair allocates nothing. Lane 0 of the ready queue never
// drains, so its live items move to the front of its array over and over;
// lane 1 drains on every pop.
func TestMinHeapSteadyStateAllocFree(t *testing.T) {
	events := make(eventHeap, 0, 64)
	ready := newReadyQueue(2)
	for i := 0; i < 32; i++ {
		events.push(event{at: float64(i % 5), seq: i})
		ready.push(readyItem{key: 1, at: float64(i), seq: i}, 0)
	}
	seq := 32
	for _, c := range []struct {
		name    string
		pushPop func()
	}{
		{"event", func() {
			events.push(event{at: 2, seq: seq})
			seq++
			events.pop()
		}},
		{"readyItem", func() {
			ready.push(readyItem{key: 1, at: float64(seq), seq: seq}, 0)
			ready.pop()
			ready.push(readyItem{key: 0, at: float64(seq), seq: seq}, 1)
			ready.pop()
			seq++
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if allocs := testing.AllocsPerRun(1000, c.pushPop); allocs != 0 {
				t.Fatalf("push/pop at steady capacity: %v allocs, want 0", allocs)
			}
		})
	}
}
