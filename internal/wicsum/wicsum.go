// Package wicsum implements ReSV's second stage, weighted cumulative sum
// (WiCSum) thresholding (Fig. 9 of the paper), and the early-exit bucket
// sorting dataflow the WTU hardware unit uses to execute it (Fig. 11).
//
// Given per-cluster relevance masses (the exp-normalised Query x
// Key_cluster^T scores) and per-cluster token counts, WiCSum selects, per
// score-matrix row (one row per query token x attention head), the smallest
// prefix of descending-sorted clusters whose weighted mass exceeds a fixed
// fraction Th_r-wics of the row's total weighted mass:
//
//	Sum_i      = sum_j mass[i][j] * count[j]                 (Eq. 1)
//	Th_wics_i  = Sum_i * Th_r-wics                           (Eq. 2)
//	select smallest t with sum_{j<=t} mass[i][sigma(j)]*count[sigma(j)]
//	    > Th_wics_i, sigma = descending sort of row i        (Eq. 3)
//
// Unlike fixed top-k, the number of selected clusters adapts to the row's
// score distribution, which is what produces the per-layer/per-head ratio
// variability of Fig. 20.
//
// A Scratch thresholds one row at a time with the WTU's early exit at its
// fixed 20 buckets, through buffers it reuses across rows and calls (the
// software analogue of the WTU's fixed on-chip buffers), so steady-state
// thresholding performs no heap allocation. Select runs the WTU's
// preprocess step (Sum_i, min and max) as a pass of its own over the row
// before the walk. Rows are independent: core.SelectTokens gives each of
// its workers a Scratch and aggregates the rows' selections itself.
//
// Select and SelectBounded share one walk (walkUpper), which takes the
// threshold as an interval [lo, hi]: a step trips when the covered mass
// exceeds hi, and the walk gives up when a step leaves it inside (lo, hi]
// or its entries run out above the lowest bucket. Select passes a
// zero-width interval, Th_wics_i itself, and the whole row, so every step
// decides, and walks the lowest bucket if the threshold has not tripped.
// SelectBounded passes a bracket of Th_wics_i and only the entries that can
// sit above the lowest bucket, with their exact masses, among them the
// row's largest and smallest, whose range it folds itself; where it
// decides, its selection, Examined and MassCovered are Select's.
package wicsum

import "slices"

// buckets is the WTU's bucket count: the hardware sorts each row into 20
// equal score ranges (Fig. 11).
const buckets = 20

// RowSelection is the outcome of thresholding one score row.
type RowSelection struct {
	// Selected holds the chosen cluster indices (unordered set semantics;
	// stored in selection order, highest mass first for the exact variant).
	// Slices produced by Scratch.Select and SelectBounded alias the
	// scratch's reusable arena and are valid until its next Reset.
	Selected []int
	// MassCovered is the weighted mass accumulated by the selection.
	MassCovered float64
	// TotalMass is Sum_i, the row's full weighted mass; SelectBounded,
	// which knows it only within a bracket, leaves it zero.
	TotalMass float64
	// Examined counts score entries inspected before the threshold tripped;
	// the WTU's early exit makes this much smaller than the row length.
	Examined int
}

// Scratch is one worker's reusable buffers for the early-exit sorter: the
// indices of a row's entries above its lowest bucket (upper), their buckets
// (entryBucket), the bucket store they are counting-sorted into
// (bucketItems) and each bucket's count, then next store slot (bucketNext);
// and the arena the rows' Selected slices are carved from. The zero value is
// ready to use; a Scratch must not be shared across goroutines.
type Scratch struct {
	upper       []int
	entryBucket []int
	bucketNext  []int
	bucketItems []int
	selected    []int
}

// Reset empties the selection arena: Selected slices returned before it are
// invalid after it. The buffers keep their capacity.
func (ws *Scratch) Reset() { ws.selected = ws.selected[:0] }

// Select thresholds one row with the WTU's early exit at its 20 buckets
// (see SelectRowEarlyExit), preprocess pass included. weights[j] is
// cluster j's token count as a float64. mass and weights must have equal
// length; mass entries must be non-negative. ratio is Th_r-wics in (0, 1];
// values outside are clamped. The row's Selected is carved from the arena
// and stays valid until the next Reset.
func (ws *Scratch) Select(mass []float32, weights []float64, ratio float64) RowSelection {
	return ws.selectRowEarlyExit(mass, weights, ratio, buckets)
}

// weightsOf returns counts as float64 weights, the form Select takes.
func weightsOf(counts []int) []float64 {
	w := make([]float64, len(counts))
	for j, c := range counts {
		w[j] = float64(c)
	}
	return w
}

// grabInts returns a length-n scratch slice, growing buf only when needed.
//
//vrex:noalloc
func grabInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	return (*buf)[:n]
}

// SelectRow performs exact WiCSum thresholding on one row: full descending
// sort, then cumulative accumulation until the weighted mass exceeds
// ratio * total. counts[j] is cluster j's token count; mass and ratio are
// Select's.
//
//vrex:testonly the exact reference for Scratch's rows; the root WiCSum benchmarks call it too
func SelectRow(mass []float32, counts []int, ratio float64) RowSelection {
	if len(mass) != len(counts) {
		panic("wicsum: mass/counts length mismatch")
	}
	ratio = clampRatio(ratio)
	w := weightsOf(counts)
	n := len(mass)
	var total float64
	for j := 0; j < n; j++ {
		total += float64(float64(mass[j]) * w[j])
	}
	if n == 0 || total == 0 {
		return RowSelection{TotalMass: total}
	}
	order := make([]int, n)
	for j := range order {
		order[j] = j
	}
	// Descending index sort; slices.SortFunc shares sort.Slice's pdqsort, so
	// tie permutations are sort.Slice's.
	slices.SortFunc(order, func(a, b int) int {
		switch {
		case mass[a] > mass[b]:
			return -1
		case mass[a] < mass[b]:
			return 1
		default:
			return 0
		}
	})
	th := total * ratio
	sel := RowSelection{TotalMass: total}
	var ws Scratch
	for _, j := range order {
		if ws.take(&sel, mass, w, j) > th {
			break
		}
	}
	sel.Selected = ws.selected
	return sel
}
