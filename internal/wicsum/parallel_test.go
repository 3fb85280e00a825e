package wicsum

import (
	"reflect"
	"testing"

	"vrex/internal/mathx"
	"vrex/internal/parallel"
)

// TestSelectMatrixParallelEquivalence: thresholding a matrix's rows in
// contiguous chunks, one Scratch per worker as core.SelectTokens does, must
// produce exactly the sequential result of one Scratch: same rows, same
// union, same examined count. Three workers leave the last chunk uneven.
func TestSelectMatrixParallelEquivalence(t *testing.T) {
	masses, counts := randomRows(mathx.NewRNG(9), 64, 300, 32)
	weights := weightsOf(counts)
	var seqWS Scratch
	seq := selectAll(&seqWS, make([]RowSelection, len(masses)), masses, weights, 0.3)
	seqUnion, seqExamined := unionOf(seq, len(counts))
	for _, w := range []int{2, 3, 4, 16} {
		scratches := make([]Scratch, w)
		par := make([]RowSelection, len(masses))
		chunk := (len(masses) + w - 1) / w
		parallel.ForEach(w, w, func(k int) {
			lo := min(k*chunk, len(masses))
			hi := min(lo+chunk, len(masses))
			selectAll(&scratches[k], par[lo:hi], masses[lo:hi], weights, 0.3)
		})
		for i := range seq {
			if !sameSelection(seq[i], par[i]) {
				t.Fatalf("workers=%d: row %d diverged: %v vs %v", w, i, par[i].Selected, seq[i].Selected)
			}
		}
		union, examined := unionOf(par, len(counts))
		if !reflect.DeepEqual(seqUnion, union) {
			t.Fatalf("workers=%d: union diverged", w)
		}
		if seqExamined != examined {
			t.Fatalf("workers=%d: examined %d entries, want %d", w, examined, seqExamined)
		}
	}
}
