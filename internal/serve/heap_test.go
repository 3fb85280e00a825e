package serve

import (
	"cmp"
	"slices"
	"testing"

	"vrex/internal/mathx"
)

// cmpEvent and cmpReady spell out the two heap orders field by field,
// independently of the before methods under test.
func cmpEvent(a, b event) int {
	return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
}

func cmpReady(a, b readyItem) int {
	return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
}

// checkHeapOrder drives random push/pop sequences, then a moveReady-style
// filter and re-init, and requires every pop to return the least remaining
// value under order. gen builds a value from a unique seq and draws its
// other fields from a small range, so ties on them are common.
func checkHeapOrder[T any, H ~[]T, PH interface {
	*H
	push(T)
	pop() T
	init()
}](t *testing.T, gen func(rng *mathx.RNG, seq int) T, order func(a, b T) int, drop func(T) bool) {
	t.Helper()
	rng := mathx.NewRNG(7)
	for trial := 0; trial < 200; trial++ {
		var h H
		var ref []T
		popCheck := func() {
			t.Helper()
			slices.SortFunc(ref, order)
			got := PH(&h).pop()
			if order(got, ref[0]) != 0 {
				t.Fatalf("trial %d: popped %+v, want %+v", trial, got, ref[0])
			}
			ref = ref[1:]
		}
		seqs := rng.Perm(64)
		for _, seq := range seqs {
			if len(ref) > 0 && rng.Intn(3) == 0 {
				popCheck()
			}
			x := gen(rng, seq)
			PH(&h).push(x)
			ref = append(ref, x)
		}
		// Filter in place and re-init, as moveReady does on both devices.
		kept := h[:0]
		for _, x := range h {
			if !drop(x) {
				kept = append(kept, x)
			}
		}
		h = kept
		PH(&h).init()
		ref = slices.DeleteFunc(ref, drop)
		for len(ref) > 0 {
			popCheck()
		}
		if len(h) != 0 {
			t.Fatalf("trial %d: %d values left after the reference drained", trial, len(h))
		}
	}
}

func TestMinHeapPopsInSortOrder(t *testing.T) {
	t.Run("event", func(t *testing.T) {
		checkHeapOrder[event, eventHeap](t,
			func(rng *mathx.RNG, seq int) event {
				return event{at: float64(rng.Intn(4)), session: rng.Intn(5), seq: seq}
			},
			cmpEvent, func(e event) bool { return e.session == 0 })
	})
	t.Run("readyItem", func(t *testing.T) {
		checkHeapOrder[readyItem, readyHeap](t,
			func(rng *mathx.RNG, seq int) readyItem {
				return readyItem{key: float64(rng.Intn(3)), at: float64(rng.Intn(4)), session: rng.Intn(5), seq: seq}
			},
			cmpReady, func(it readyItem) bool { return it.session == 0 })
	})
}

// TestMinHeapSteadyStateAllocFree: once a heap's backing array has grown, a
// push/pop pair allocates nothing.
func TestMinHeapSteadyStateAllocFree(t *testing.T) {
	events := make(eventHeap, 0, 64)
	ready := make(readyHeap, 0, 64)
	for i := 0; i < 32; i++ {
		events.push(event{at: float64(i % 5), seq: i})
		ready.push(readyItem{key: float64(i % 3), at: float64(i % 5), seq: i})
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
			ready.push(readyItem{key: 1, at: 2, seq: seq})
			seq++
			ready.pop()
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if allocs := testing.AllocsPerRun(1000, c.pushPop); allocs != 0 {
				t.Fatalf("push/pop at steady capacity: %v allocs, want 0", allocs)
			}
		})
	}
}
