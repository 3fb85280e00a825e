package wicsum

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
//vrex:testonly the early-exit reference for Selector's rows; the root WiCSum benchmarks call it too
func SelectRowEarlyExit(mass []float32, counts []int, ratio float64, nBuckets int) RowSelection {
	var ws rowScratch
	return ws.selectRowEarlyExit(mass, counts, ratio, nBuckets)
}

// selectRowEarlyExit is the scratch-backed kernel behind SelectRowEarlyExit:
// the bucket store is a counting sort over reusable buffers (the hardware's
// fixed bucket memory), so the steady state allocates nothing.
func (ws *rowScratch) selectRowEarlyExit(mass []float32, counts []int, ratio float64, nBuckets int) RowSelection {
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
		total += float64(v) * float64(counts[j])
	}
	sel.TotalMass = total
	if total == 0 {
		return sel
	}
	th := total * ratio
	start := len(ws.selected)

	if maxv == minv { //vrex:float-eq degenerate-range detection wants bit equality, not closeness
		// Degenerate range: a single bucket holds everything; accumulate in
		// index order until the threshold trips.
		for j := 0; j < n; j++ {
			sel.Examined++
			ws.selected = append(ws.selected, j)
			sel.MassCovered += float64(mass[j]) * float64(counts[j])
			if sel.MassCovered > th {
				break
			}
		}
		sel.Selected = ws.selected[start:]
		return sel
	}

	// Bucket sort: bucket b covers scores in
	// [minv + b*width, minv + (b+1)*width). The bucket-range updater
	// produces per-bucket bitmasks; we realise them as index runs in a
	// reusable counting-sort store (entries within a bucket stay in index
	// order, matching the per-bucket append order).
	// Each entry's bucket is computed once, in the counting pass, and kept
	// for the scatter pass.
	width := (maxv - minv) / float32(nBuckets)
	bucketCount := grabInts(&ws.bucketCount, nBuckets)
	clear(bucketCount)
	entryBucket := grabInts(&ws.entryBucket, n)
	for j, v := range mass {
		b := int((v - minv) / width)
		if b >= nBuckets {
			b = nBuckets - 1
		}
		entryBucket[j] = b
		bucketCount[b]++
	}
	bucketStart := grabInts(&ws.bucketStart, nBuckets)
	pos := 0
	for b := 0; b < nBuckets; b++ {
		bucketStart[b] = pos
		pos += bucketCount[b]
	}
	items := grabInts(&ws.bucketItems, n)
	fill := grabInts(&ws.bucketCount, nBuckets) // reuse as per-bucket cursor
	copy(fill, bucketStart)
	for j, b := range entryBucket {
		items[fill[b]] = j
		fill[b]++
	}

	// Token selection step: walk from the highest-range bucket downward,
	// early-exiting once the cumulative weighted sum exceeds the threshold.
	// (fill aliased bucketCount, so bucket extents come from the starts.)
	for b := nBuckets - 1; b >= 0; b-- {
		end := n
		if b+1 < nBuckets {
			end = bucketStart[b+1]
		}
		for _, j := range items[bucketStart[b]:end] {
			sel.Examined++
			ws.selected = append(ws.selected, j)
			sel.MassCovered += float64(mass[j]) * float64(counts[j])
			if sel.MassCovered > th {
				sel.Selected = ws.selected[start:]
				return sel
			}
		}
	}
	sel.Selected = ws.selected[start:]
	return sel
}
