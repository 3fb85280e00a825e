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
// Here the preprocess step is its own pass over the row (preprocess); Select
// takes its results from the pass that wrote the row instead, and both run
// the same token-selection code.
//
//vrex:testonly the early-exit sorter at any bucket count, for the differential tests; the root WiCSum benchmarks call it too
func SelectRowEarlyExit(mass []float32, counts []int, ratio float64, nBuckets int) RowSelection {
	if len(mass) != len(counts) {
		panic("wicsum: mass/counts length mismatch")
	}
	w := weightsOf(counts)
	var ws Scratch
	total, minv, maxv := preprocess(mass, w)
	return ws.selectRowEarlyExit(mass, w, ratio, nBuckets, total, minv, maxv)
}

// preprocess is the WTU's preprocess step as its own pass over a row (the
// adder tree and the min/max unit): the weighted sum, in index order, and
// the smallest and largest mass folded from mass[0]. An empty row returns
// zeros.
func preprocess(mass []float32, weights []float64) (total float64, minv, maxv float32) {
	if len(mass) == 0 {
		return 0, 0, 0
	}
	minv, maxv = mass[0], mass[0]
	for j, v := range mass {
		if v < minv {
			minv = v
		}
		if v > maxv {
			maxv = v
		}
		total += float64(float64(v) * weights[j])
	}
	return total, minv, maxv
}

// selectRowEarlyExit is the scratch-backed kernel behind SelectRowEarlyExit
// and Select, given the row's preprocess results: total, the threshold's
// base, and the score range [minv, maxv]. It walks the entries above the
// lowest bucket (walkUpper) with the threshold as a zero-width interval,
// so every step decides. Only if the threshold has not tripped is the
// lowest bucket walked, in index order straight from mass. Each bucket's
// entries stay in index order, so the walk visits the entries a counting
// sort of the whole row would, in the same order, and the steady state
// allocates nothing.
//
// A row that is one bucket is walked whole in index order. That is a row
// with nBuckets == 1, where the clamp puts every entry back into bucket 0,
// and a row whose width is not positive and finite: all entries equal, a
// range that underflows when divided, a NaN first entry or an infinite
// entry. A total that is not finite never trips the threshold, so such a
// row selects every entry, as SelectRow does.
func (ws *Scratch) selectRowEarlyExit(mass []float32, weights []float64, ratio float64, nBuckets int, total float64, minv, maxv float32) RowSelection {
	if len(mass) != len(weights) {
		panic("wicsum: mass/weights length mismatch")
	}
	if nBuckets <= 0 {
		panic("wicsum: non-positive bucket count")
	}
	ratio = clampRatio(ratio)
	sel := RowSelection{TotalMass: total}
	if len(mass) == 0 {
		return RowSelection{}
	}
	if total == 0 {
		return sel
	}
	th := total * ratio
	start := len(ws.selected)

	width := (maxv - minv) / float32(nBuckets)
	if nBuckets == 1 || !(width > 0 && width <= math.MaxFloat32) {
		for j := range mass {
			if ws.take(&sel, mass, weights, j) > th {
				break
			}
		}
		sel.Selected = ws.selected[start:]
		return sel
	}
	if !ws.walkUpper(&sel, mass, weights, nBuckets, th, th, minv, width) {
		for j, v := range mass {
			if v-minv >= width {
				continue // walked above
			}
			if ws.take(&sel, mass, weights, j) > th {
				break
			}
		}
	}
	sel.Selected = ws.selected[start:]
	return sel
}

// SelectBounded thresholds one row from part of it, as ReSV's bounded path
// calls it: mass and weights list some of the row's entries, in index
// order, with their exact masses; every entry missing from the list has a
// mass of at most rest. minv and maxv are the whole row's smallest and
// largest mass, and the row's total lies in [totalLo, totalHi]
// (mathx.ExpMassBound brackets it). The list may also hold entries of the
// lowest bucket, the row's or not (such as a second copy of the smallest
// mass), since the walk never reaches the lowest bucket.
//
// It returns Select's selection of the whole row, as positions in the
// list, with its Examined and MassCovered, and true; or false if it cannot
// tell what Select would select. Its TotalMass is zero. The selection is
// Select's because every step takes the same entry with the same mass:
//
//   - The guard rest - minv < width (float32) puts every missing entry in
//     the lowest bucket, as a mass at most rest leaves v - minv at most
//     rest - minv. So the list holds every entry above it, which split and
//     bucket as the whole row's do, and walk in the same order
//     (walkUpper), adding the same masses in the same order.
//   - Select's threshold is total*ratio, and [totalLo*ratio,
//     totalHi*ratio] holds it, because rounding is monotone. A step whose
//     covered mass is above the interval trips Select's walk too, and one
//     at or below it does not, so the walks stop at the same step. A step
//     inside the interval, or a walk that runs out of entries above the
//     lowest bucket, which Select would go on to walk, returns false.
//
// A row whose width is not positive and finite, or whose total bracket is
// not positive and finite, returns false too. The selection is carved from
// the arena as Select's is; a row that returns false leaves the arena as
// it was.
func (ws *Scratch) SelectBounded(mass []float32, weights []float64, ratio, totalLo, totalHi float64, minv, maxv, rest float32) (RowSelection, bool) {
	if len(mass) != len(weights) {
		panic("wicsum: mass/weights length mismatch")
	}
	ratio = clampRatio(ratio)
	width := (maxv - minv) / buckets
	if !(totalLo > 0 && totalHi <= math.MaxFloat64 && width > 0 && width <= math.MaxFloat32 && rest-minv < width) {
		return RowSelection{}, false
	}
	start := len(ws.selected)
	var sel RowSelection
	if !ws.walkUpper(&sel, mass, weights, buckets, totalLo*ratio, totalHi*ratio, minv, width) {
		ws.selected = ws.selected[:start]
		return RowSelection{}, false
	}
	sel.Selected = ws.selected[start:]
	return sel, true
}

// walkUpper is the early-exit walk above the lowest bucket, the code
// Select and SelectBounded share, given a positive finite bucket width and
// the threshold as an interval [thLo, thHi]. It splits the lowest bucket
// off with one subtract-and-compare per entry, and buckets only the
// entries above it: exp-normalised rows crowd near zero, so that is about
// 14 of a 268-entry row on resv-stream. Those entries are counting-sorted,
// highest bucket first, over reusable buffers (the hardware's fixed bucket
// memory), and walked in that order, each bucket's entries in list order.
// It reports true once the covered mass exceeds thHi (tripped), and false
// if a step leaves it inside (thLo, thHi] or the entries run out; with
// thLo == thHi every step decides, so false means the walk ran out.
//
// The split is exact: for a = v-minv >= 0 and a positive finite width,
// int(a/width) >= 1 holds in float32 exactly when a >= width, because
// a < width puts a/width at or below 1-2^-24. A NaN entry fails the
// compare and joins the lowest bucket.
func (ws *Scratch) walkUpper(sel *RowSelection, mass []float32, weights []float64, nBuckets int, thLo, thHi float64, minv, width float32) bool {
	// Split: upper lists the entries above the lowest bucket, in index
	// order. Every index is written and kept only by advancing k, so the
	// pass has no branch that depends on the data.
	upper := grabInts(&ws.upper, len(mass))
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
	for _, j := range items {
		switch covered := ws.take(sel, mass, weights, j); {
		case covered > thHi:
			return true
		case covered > thLo:
			return false
		}
	}
	return false
}

// take examines entry j of the row: it appends j to the selection and adds
// its weighted mass, and returns the covered mass.
func (ws *Scratch) take(sel *RowSelection, mass []float32, weights []float64, j int) float64 {
	sel.Examined++
	ws.selected = append(ws.selected, j)
	sel.MassCovered += float64(float64(mass[j]) * weights[j])
	return sel.MassCovered
}

// clampRatio clamps Th_r-wics into [0, 1]; NaN passes through.
func clampRatio(ratio float64) float64 {
	if ratio < 0 {
		return 0
	}
	if ratio > 1 {
		return 1
	}
	return ratio
}
