package wicsum

import "math"

// SelectRowEarlyExit implements the WTU's early-exit sorting dataflow
// (Fig. 11). Instead of a full sort, the preprocess step computes the row's
// weighted sum, threshold and min/max score range; the token-selection step
// then bucket-sorts scores into nBuckets equal ranges and walks buckets from
// the highest range downward, accumulating each bucket's weighted mass and
// exiting as soon as the cumulative sum exceeds the threshold. Buckets below
// the exit point are never examined ("Skip" in Fig. 11), which is why the
// WTU touches only ~16% of entries per row on average.
//
// Within the final (threshold-crossing) bucket the entries are accumulated
// in index order, so the selection can slightly overshoot the exact
// descending-order selection — by at most one bucket's width of mass. The
// mass guarantee (covered > ratio*total) always holds, which is what
// accuracy depends on.
//
//vrex:testonly the early-exit sorter at any bucket count, for the differential tests; the root WiCSum benchmarks call it too
func SelectRowEarlyExit(mass []float32, counts []int, ratio float64, nBuckets int) RowSelection {
	var ws Scratch
	return ws.selectRowEarlyExit(mass, counts, ratio, nBuckets)
}

// selectRowEarlyExit is the scratch-backed kernel behind SelectRowEarlyExit
// and Select. After the preprocess pass it splits the lowest bucket off with
// one subtract-and-compare per entry, and buckets only the entries above it:
// exp-normalised rows crowd near zero, so that is about 14 of a 292-entry
// row on resv-stream. Those entries are counting-sorted, highest
// bucket first, over reusable buffers (the hardware's fixed bucket memory),
// and walked in that order. Only if the threshold has not tripped is the
// lowest bucket walked, in index order straight from mass. Each bucket's
// entries stay in index order, so the walk visits the entries a counting
// sort of the whole row would, in the same order, and the steady state
// allocates nothing.
//
// The split is exact: for a = v-minv >= 0 and a positive finite width,
// int(a/width) >= 1 holds in float32 exactly when a >= width, because
// a < width puts a/width at or below 1-2^-24. A NaN entry fails the
// compare and joins the lowest bucket.
//
// A row that is one bucket is walked whole in index order. That is a row
// with nBuckets == 1, where the clamp puts every entry back into bucket 0,
// and a row whose width is not positive and finite: all entries equal, a
// range that underflows when divided, a NaN first entry or an infinite
// entry. A total that is not finite never trips the threshold, so such a
// row selects every entry, as SelectRow does.
func (ws *Scratch) selectRowEarlyExit(mass []float32, counts []int, ratio float64, nBuckets int) RowSelection {
	if len(mass) != len(counts) {
		panic("wicsum: mass/counts length mismatch")
	}
	if nBuckets <= 0 {
		panic("wicsum: non-positive bucket count")
	}
	if ratio < 0 {
		ratio = 0
	}
	if ratio > 1 {
		ratio = 1
	}
	n := len(mass)
	sel := RowSelection{}
	if n == 0 {
		return sel
	}

	// Preprocess step: weighted sum, min/max, threshold (all single-pass
	// vector ops on the WTU's adder tree and min/max unit).
	minv, maxv := mass[0], mass[0]
	var total float64
	for j := 0; j < n; j++ {
		v := mass[j]
		if v < minv {
			minv = v
		}
		if v > maxv {
			maxv = v
		}
		total += float64(float64(v) * float64(counts[j]))
	}
	sel.TotalMass = total
	if total == 0 {
		return sel
	}
	th := total * ratio
	start := len(ws.selected)

	width := (maxv - minv) / float32(nBuckets)
	if nBuckets == 1 || !(width > 0 && width <= math.MaxFloat32) {
		for j := range mass {
			if ws.take(&sel, mass, counts, j, th) {
				break
			}
		}
		sel.Selected = ws.selected[start:]
		return sel
	}

	// Split: upper lists the entries above the lowest bucket, in index
	// order. Every index is written and kept only by advancing k, so the
	// pass has no branch that depends on the data.
	upper := grabInts(&ws.upper, n)
	k := 0
	for j, v := range mass {
		upper[k] = j
		if v-minv >= width {
			k++
		}
	}
	upper = upper[:k]

	// Bucket sort of the upper entries: bucket b covers scores in
	// [minv + b*width, minv + (b+1)*width), the top one maxv too. The
	// bucket-range updater produces per-bucket bitmasks; we realise them as
	// index runs in a counting-sort store laid out from the highest bucket
	// down, so walking the store is walking the buckets. next holds each
	// bucket's count, then the store slot its next entry goes to.
	next := grabInts(&ws.bucketNext, nBuckets)
	clear(next)
	entryBucket := grabInts(&ws.entryBucket, k)
	for i, j := range upper {
		b := min(int((mass[j]-minv)/width), nBuckets-1)
		entryBucket[i] = b
		next[b]++
	}
	pos := 0
	for b := nBuckets - 1; b >= 1; b-- {
		pos, next[b] = pos+next[b], pos
	}
	items := grabInts(&ws.bucketItems, k)
	for i, b := range entryBucket {
		items[next[b]] = upper[i]
		next[b]++
	}

	// Token selection step: walk from the highest-range bucket downward,
	// early-exiting once the cumulative weighted sum exceeds the threshold.
	tripped := false
	for _, j := range items {
		if tripped = ws.take(&sel, mass, counts, j, th); tripped {
			break
		}
	}
	if !tripped {
		for j, v := range mass {
			if v-minv >= width {
				continue // walked above
			}
			if ws.take(&sel, mass, counts, j, th) {
				break
			}
		}
	}
	sel.Selected = ws.selected[start:]
	return sel
}

// take examines entry j of the row: it appends j to the selection, adds its
// weighted mass, and reports whether the covered mass now exceeds th.
func (ws *Scratch) take(sel *RowSelection, mass []float32, counts []int, j int, th float64) bool {
	sel.Examined++
	ws.selected = append(ws.selected, j)
	sel.MassCovered += float64(float64(mass[j]) * float64(counts[j]))
	return sel.MassCovered > th
}
