package wicsum

import (
	"testing"

	"vrex/internal/mathx"
)

// randomRows returns rows uniform score rows of cols entries and cols
// cluster counts in [1, maxCount].
func randomRows(rng *mathx.RNG, rows, cols, maxCount int) ([][]float32, []int) {
	masses := make([][]float32, rows)
	counts := make([]int, cols)
	for j := range counts {
		counts[j] = 1 + rng.Intn(maxCount)
	}
	for i := range masses {
		row := make([]float32, cols)
		for j := range row {
			row[j] = rng.Float32()
		}
		masses[i] = row
	}
	return masses, counts
}

// selectAll thresholds every row through ws after one Reset and returns
// the rows' selections in sels.
func selectAll(ws *Scratch, sels []RowSelection, masses [][]float32, weights []float64, ratio float64) []RowSelection {
	ws.Reset()
	for i, row := range masses {
		sels[i] = ws.Select(row, weights, ratio)
	}
	return sels
}

// TestSelectMatrixSteadyStateAllocFree pins the scratch-reuse guarantee:
// after the first pass sizes a Scratch's buffers, thresholding a whole
// matrix through it performs zero heap allocations.
func TestSelectMatrixSteadyStateAllocFree(t *testing.T) {
	masses, counts := randomRows(mathx.NewRNG(31), 48, 300, 32)
	w := weightsOf(counts)
	var ws Scratch
	sels := make([]RowSelection, len(masses))
	for i := 0; i < 3; i++ {
		selectAll(&ws, sels, masses, w, 0.3)
	}
	allocs := testing.AllocsPerRun(100, func() {
		selectAll(&ws, sels, masses, w, 0.3)
	})
	if allocs != 0 {
		t.Fatalf("steady-state thresholding allocates %v times per pass, want 0", allocs)
	}
}

// TestSelectMatrixScratchReuseKeepsResults guards the arena lifetime
// contract: every row selected since the last Reset keeps its selection
// while later rows grow the arena, and consecutive passes on identical input
// yield identical selections.
func TestSelectMatrixScratchReuseKeepsResults(t *testing.T) {
	masses, counts := randomRows(mathx.NewRNG(32), 8, 64, 8)
	var ws Scratch
	first := selectAll(&ws, make([]RowSelection, len(masses)), masses, weightsOf(counts), 0.3)
	selected := make([][]int, len(first))
	for i, r := range first {
		if want := SelectRowEarlyExit(masses[i], counts, 0.3, buckets); !sameSelection(r, want) {
			t.Fatalf("row %d: arena selection %v, want %v", i, r.Selected, want.Selected)
		}
		selected[i] = append([]int(nil), r.Selected...)
	}
	second := selectAll(&ws, make([]RowSelection, len(masses)), masses, weightsOf(counts), 0.3)
	for i := range selected {
		if len(second[i].Selected) != len(selected[i]) {
			t.Fatalf("row %d selection size changed", i)
		}
		for j := range selected[i] {
			if second[i].Selected[j] != selected[i][j] {
				t.Fatalf("row %d selection diverged", i)
			}
		}
	}
}
