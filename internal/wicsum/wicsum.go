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
// The Selector runs the whole matrix through fixed per-worker scratch
// buffers — order permutations, bucket stores and selection arenas are
// reused across calls (the software analogue of the WTU's fixed on-chip
// buffers), so steady-state thresholding performs no heap allocation.
package wicsum

import (
	"slices"

	"vrex/internal/parallel"
)

// RowSelection is the outcome of thresholding one score row.
type RowSelection struct {
	// Selected holds the chosen cluster indices (unordered set semantics;
	// stored in selection order, highest mass first for the exact variant).
	// Slices produced by Selector.SelectMatrix alias the selector's reusable
	// arena and are valid until its next SelectMatrix call.
	Selected []int
	// MassCovered is the weighted mass accumulated by the selection.
	MassCovered float64
	// TotalMass is Sum_i, the row's full weighted mass.
	TotalMass float64
	// Examined counts score entries inspected before the threshold tripped;
	// the WTU's early exit makes this much smaller than the row length.
	Examined int
}

// rowScratch is one worker's reusable buffers: the index permutation for the
// exact sort; for the early-exit sorter, the indices of a row's entries
// above its lowest bucket (upper), their buckets (entryBucket), the bucket
// store they are counting-sorted into (bucketItems) and each bucket's count,
// then next store slot (bucketNext); and the arena the per-row Selected
// slices are carved from.
type rowScratch struct {
	order       []int
	upper       []int
	entryBucket []int
	bucketNext  []int
	bucketItems []int
	selected    []int
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
// ratio * total. mass and counts must have equal length; mass entries must be
// non-negative (use mathx.ExpNormalize upstream). ratio is Th_r-wics in
// (0, 1]; values outside are clamped.
//
//vrex:testonly the exact reference for Selector's rows; the root WiCSum benchmarks call it too
func SelectRow(mass []float32, counts []int, ratio float64) RowSelection {
	var ws rowScratch
	return ws.selectRow(mass, counts, ratio)
}

// selectRow is the scratch-backed exact kernel behind SelectRow.
func (ws *rowScratch) selectRow(mass []float32, counts []int, ratio float64) RowSelection {
	if len(mass) != len(counts) {
		panic("wicsum: mass/counts length mismatch")
	}
	if ratio < 0 {
		ratio = 0
	}
	if ratio > 1 {
		ratio = 1
	}
	n := len(mass)
	var total float64
	for j := 0; j < n; j++ {
		total += float64(float64(mass[j]) * float64(counts[j]))
	}
	if n == 0 || total == 0 {
		return RowSelection{TotalMass: total}
	}
	order := grabInts(&ws.order, n)
	for j := range order {
		order[j] = j
	}
	// Descending index sort; slices.SortFunc shares sort.Slice's pdqsort so
	// tie permutations are unchanged, without the interface boxing and
	// reflect swapper sort.Slice allocates per call.
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
	start := len(ws.selected)
	for _, j := range order {
		sel.Examined++
		ws.selected = append(ws.selected, j)
		sel.MassCovered += float64(float64(mass[j]) * float64(counts[j]))
		if sel.MassCovered > th {
			break
		}
	}
	sel.Selected = ws.selected[start:]
	return sel
}

// Selector applies WiCSum thresholding to a whole score matrix and
// aggregates the per-row selections. Two strategies are available: Exact
// (software reference, full sort) and EarlyExit (the WTU hardware dataflow).
//
// A Selector owns reusable scratch (lazily allocated on first use), so its
// methods take a pointer receiver and a single Selector must not be shared
// across concurrent SelectMatrix calls. The returned MatrixSelection aliases
// that scratch and is valid until the next SelectMatrix call.
type Selector struct {
	// Ratio is Th_r-wics.
	Ratio float64
	// Buckets is the bucket count for the early-exit sorter (hardware uses a
	// fixed small number; <= 0 disables early-exit and falls back to exact).
	Buckets int
	// Workers shards row thresholding across goroutines (the software
	// analogue of the WTU's per-head parallelism): 0 uses GOMAXPROCS, 1 is
	// sequential. The selection is identical for any worker count — rows are
	// independent and the union is merged in row order.
	Workers int

	scr *matrixScratch
}

// matrixScratch holds the Selector's reusable buffers: per-worker row
// scratch, the row-selection slice, the union accumulator and its epoch-
// stamped seen marks.
type matrixScratch struct {
	workers []rowScratch
	rows    []RowSelection
	union   []int
	seen    []uint64
	epoch   uint64
}

// MatrixSelection aggregates row selections over a score matrix.
type MatrixSelection struct {
	Rows []RowSelection
	// Union is the sorted union of selected cluster indices over all rows
	// ("the indices of the clusters selected ... are aggregated across all
	// rows" in the paper).
	Union []int
	// ExaminedFraction is the mean fraction of entries examined per row —
	// the paper observes ~16% thanks to early exit.
	ExaminedFraction float64
}

// SelectMatrix thresholds every row of the masses matrix (rows x clusters)
// and aggregates. counts must have length == number of columns.
func (s *Selector) SelectMatrix(masses [][]float32, counts []int) MatrixSelection {
	if s.scr == nil {
		s.scr = &matrixScratch{}
	}
	scr := s.scr
	n := len(masses)
	if cap(scr.rows) < n {
		scr.rows = make([]RowSelection, n)
	}
	rows := scr.rows[:n]

	// Fan out: rows are thresholded independently in fixed per-worker
	// chunks, each worker writing its rows' slots and carving Selected
	// slices from its own arena. Small matrices stay on the caller's
	// goroutine — without constructing the fan-out closure, so the
	// sequential steady state is allocation-free.
	workers := parallel.Workers(s.Workers)
	if n < 4 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	for len(scr.workers) < workers {
		scr.workers = append(scr.workers, rowScratch{})
	}
	if workers <= 1 {
		if n > 0 {
			s.selectChunk(&scr.workers[0], masses, counts, rows, 0, n)
		}
	} else {
		chunk := (n + workers - 1) / workers
		parallel.ForEach(workers, workers, func(w int) {
			lo := w * chunk
			hi := min(lo+chunk, n)
			if lo < hi {
				s.selectChunk(&scr.workers[w], masses, counts, rows, lo, hi)
			}
		})
	}

	// Fan in: aggregate in row order, so the union and the examined-fraction
	// accumulation are byte-identical to the sequential loop.
	out := MatrixSelection{Rows: rows}
	scr.epoch++
	seen := scr.seen
	if cap(seen) < len(counts) {
		seen = make([]uint64, len(counts))
		scr.seen = seen
	}
	seen = seen[:len(counts)]
	union := scr.union[:0]
	var examined, width float64
	for i := range rows {
		for _, j := range rows[i].Selected {
			if seen[j] != scr.epoch {
				seen[j] = scr.epoch
				union = append(union, j)
			}
		}
		examined += float64(rows[i].Examined)
		width += float64(len(masses[i]))
	}
	slices.Sort(union)
	scr.union = union
	out.Union = union
	if width > 0 {
		out.ExaminedFraction = examined / width
	}
	return out
}

// selectChunk thresholds rows [lo, hi) on one worker's scratch.
func (s *Selector) selectChunk(ws *rowScratch, masses [][]float32, counts []int, rows []RowSelection, lo, hi int) {
	ws.selected = ws.selected[:0]
	for i := lo; i < hi; i++ {
		if s.Buckets > 0 {
			rows[i] = ws.selectRowEarlyExit(masses[i], counts, s.Ratio, s.Buckets)
		} else {
			rows[i] = ws.selectRow(masses[i], counts, s.Ratio)
		}
	}
}
