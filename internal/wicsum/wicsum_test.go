package wicsum

import (
	"testing"
	"testing/quick"

	"vrex/internal/mathx"
)

func TestSelectRowPaperExample(t *testing.T) {
	// Fig. 9's first row: scores {9,8,2,1,1}, counts {1,3,3,2,2}(reordered),
	// Th_r-wics = 80%. Walking 9*1=9? The figure uses weighted sums 49, 38,
	// 37 against Sum=95*0.8=76... we verify the mechanism, not the figure's
	// exact arithmetic: selection stops as soon as cumulative mass exceeds
	// ratio*total and covers at least that fraction.
	mass := []float32{9, 8, 2, 1, 1}
	counts := []int{5, 4, 3, 2, 1}
	sel := SelectRow(mass, counts, 0.8)
	if f := sel.MassCovered / sel.TotalMass; f <= 0.8 {
		t.Fatalf("covered fraction %v, want > 0.8", f)
	}
	// Must select in descending score order: cluster 0 then 1, ...
	if sel.Selected[0] != 0 || sel.Selected[1] != 1 {
		t.Fatalf("selection order wrong: %v", sel.Selected)
	}
	// Must not have selected everything (scores are skewed).
	if len(sel.Selected) == len(mass) {
		t.Fatal("skewed distribution should not require all clusters")
	}
}

func TestSelectRowSkewedSelectsFew(t *testing.T) {
	// One dominant cluster carries ~99% of mass: selection must be tiny.
	mass := make([]float32, 100)
	counts := make([]int, 100)
	for i := range mass {
		mass[i] = 0.001
		counts[i] = 1
	}
	mass[42] = 10
	sel := SelectRow(mass, counts, 0.9)
	if len(sel.Selected) != 1 || sel.Selected[0] != 42 {
		t.Fatalf("expected only cluster 42, got %v", sel.Selected)
	}
}

func TestSelectRowUniformSelectsMany(t *testing.T) {
	// Uniform distribution: need ~ratio of all clusters.
	mass := make([]float32, 100)
	counts := make([]int, 100)
	for i := range mass {
		mass[i] = 1
		counts[i] = 1
	}
	sel := SelectRow(mass, counts, 0.8)
	if len(sel.Selected) != 81 { // strictly exceed 80 -> 81 entries
		t.Fatalf("uniform selection = %d clusters, want 81", len(sel.Selected))
	}
}

func TestSelectRowCountsWeighting(t *testing.T) {
	// Equal scores but one cluster holds many tokens: its mass dominates.
	mass := []float32{1, 1}
	counts := []int{99, 1}
	sel := SelectRow(mass, counts, 0.5)
	// Descending sort is stable over equal scores; cluster 0 (mass 99)
	// already exceeds 50%.
	if len(sel.Selected) != 1 {
		t.Fatalf("selection %v, want a single cluster", sel.Selected)
	}
	if sel.MassCovered != 99 {
		t.Fatalf("mass covered %v, want 99", sel.MassCovered)
	}
}

func TestSelectRowZeroRatioPicksOne(t *testing.T) {
	sel := SelectRow([]float32{1, 2, 3}, []int{1, 1, 1}, 0)
	if len(sel.Selected) != 1 || sel.Selected[0] != 2 {
		t.Fatalf("ratio 0 should still pick the top cluster: %v", sel.Selected)
	}
}

func TestSelectRowEmpty(t *testing.T) {
	sel := SelectRow(nil, nil, 0.5)
	if len(sel.Selected) != 0 || sel.MassCovered != 0 || sel.TotalMass != 0 {
		t.Fatal("empty row should select nothing and cover no mass")
	}
}

func TestSelectRowAllZeroMass(t *testing.T) {
	sel := SelectRow([]float32{0, 0}, []int{1, 1}, 0.5)
	if len(sel.Selected) != 0 {
		t.Fatal("zero mass row should select nothing")
	}
}

func TestSelectRowMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SelectRow([]float32{1}, []int{1, 2}, 0.5)
}

func TestSelectRowCoverageProperty(t *testing.T) {
	// Property: for any non-negative row, the selection covers > ratio of
	// total mass, and removing the last selected cluster would not.
	f := func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		n := 1 + rng.Intn(64)
		mass := make([]float32, n)
		counts := make([]int, n)
		for i := range mass {
			mass[i] = rng.Float32()
			counts[i] = 1 + rng.Intn(40)
		}
		ratio := 0.3 + 0.6*rng.Float64()
		sel := SelectRow(mass, counts, ratio)
		if sel.TotalMass == 0 {
			return true
		}
		if sel.MassCovered <= ratio*sel.TotalMass {
			return false
		}
		last := sel.Selected[len(sel.Selected)-1]
		withoutLast := sel.MassCovered - float64(mass[last])*float64(counts[last])
		return withoutLast <= ratio*sel.TotalMass
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEarlyExitCoversThreshold(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		n := 1 + rng.Intn(128)
		mass := make([]float32, n)
		counts := make([]int, n)
		for i := range mass {
			mass[i] = rng.Float32()
			counts[i] = 1 + rng.Intn(40)
		}
		ratio := 0.3 + 0.6*rng.Float64()
		sel := SelectRowEarlyExit(mass, counts, ratio, 20)
		if sel.TotalMass == 0 {
			return true
		}
		return sel.MassCovered > ratio*sel.TotalMass
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEarlyExitExaminesFewOnSkewedData(t *testing.T) {
	// Attention-like skew: a few large masses dominate. Early exit should
	// examine a small fraction (the paper reports ~16% on average).
	rng := mathx.NewRNG(77)
	const n = 1000
	mass := make([]float32, n)
	counts := make([]int, n)
	for i := range mass {
		mass[i] = rng.Float32() * 0.001
		counts[i] = 1
	}
	for i := 0; i < 20; i++ {
		mass[rng.Intn(n)] = 0.5 + rng.Float32()
	}
	sel := SelectRowEarlyExit(mass, counts, 0.8, 20)
	if sel.Examined > n/4 {
		t.Fatalf("early exit examined %d of %d entries, want far fewer", sel.Examined, n)
	}
}

func TestEarlyExitDegenerateEqualScores(t *testing.T) {
	mass := []float32{2, 2, 2, 2}
	counts := []int{1, 1, 1, 1}
	sel := SelectRowEarlyExit(mass, counts, 0.6, 20)
	if sel.MassCovered <= 0.6*sel.TotalMass {
		t.Fatal("degenerate range must still satisfy coverage")
	}
	if len(sel.Selected) != 3 {
		t.Fatalf("expected 3 of 4 equal clusters, got %d", len(sel.Selected))
	}
}

func TestEarlyExitOvershootBounded(t *testing.T) {
	// The early-exit selection may overshoot the exact selection but never
	// by more than one bucket's worth of entries in the crossing bucket.
	rng := mathx.NewRNG(13)
	for trial := 0; trial < 50; trial++ {
		n := 10 + rng.Intn(200)
		mass := make([]float32, n)
		counts := make([]int, n)
		for i := range mass {
			mass[i] = rng.Float32()
			counts[i] = 1 + rng.Intn(10)
		}
		exact := SelectRow(mass, counts, 0.8)
		ee := SelectRowEarlyExit(mass, counts, 0.8, 20)
		// Both must satisfy the coverage guarantee.
		if ee.MassCovered <= 0.8*ee.TotalMass {
			t.Fatal("early exit failed coverage guarantee")
		}
		// Within the threshold-crossing bucket, count-weighting can make
		// early exit cross with slightly fewer or more entries than the
		// exact descending order; the deviation is bounded by one bucket of
		// entries. Assert a loose but meaningful mass bound: <= 2x exact.
		if ee.MassCovered > 2*exact.MassCovered+1e-9 {
			t.Fatalf("early exit covered %v vs exact %v", ee.MassCovered, exact.MassCovered)
		}
		// Selection sizes agree within one bucket's worth of entries.
		diff := len(ee.Selected) - len(exact.Selected)
		if diff < 0 {
			diff = -diff
		}
		if diff > n/20+n/10+1 { // generous bucket-width slack
			t.Fatalf("selection sizes diverge too much: ee=%d exact=%d n=%d",
				len(ee.Selected), len(exact.Selected), n)
		}
	}
}

func TestEarlyExitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SelectRowEarlyExit([]float32{1}, []int{1}, 0.5, 0)
}

// unionOf returns the ascending union of the rows' selected clusters, of
// cols candidates, and the entries the rows examined in total.
func unionOf(sels []RowSelection, cols int) ([]int, int) {
	mark := make([]bool, cols)
	examined := 0
	for _, s := range sels {
		for _, ci := range s.Selected {
			mark[ci] = true
		}
		examined += s.Examined
	}
	var union []int
	for ci, m := range mark {
		if m {
			union = append(union, ci)
		}
	}
	return union, examined
}

func TestSelectMatrixUnion(t *testing.T) {
	masses := [][]float32{
		{10, 0.1, 0.1},
		{0.1, 10, 0.1},
	}
	counts := []int{1, 1, 1}
	var ws Scratch
	union, _ := unionOf(selectAll(&ws, make([]RowSelection, len(masses)), masses, weightsOf(counts), 0.8), len(counts))
	if len(union) != 2 || union[0] != 0 || union[1] != 1 {
		t.Fatalf("union = %v, want [0 1]", union)
	}
}

func TestSelectMatrixPerRowAdaptivity(t *testing.T) {
	// Row 0 is skewed (few clusters needed), row 1 uniform (many needed):
	// the per-row counts must differ — the core claim vs fixed top-k.
	skew := make([]float32, 50)
	uni := make([]float32, 50)
	counts := make([]int, 50)
	for i := range skew {
		skew[i] = 0.001
		uni[i] = 1
		counts[i] = 1
	}
	skew[0] = 100
	var ws Scratch
	w := weightsOf(counts)
	skewed, uniform := selectOne(&ws, skew, w, 0.8), selectOne(&ws, uni, w, 0.8)
	if len(skewed.Selected) >= len(uniform.Selected) {
		t.Fatalf("adaptive selection failed: skewed=%d uniform=%d",
			len(skewed.Selected), len(uniform.Selected))
	}
}

func TestSelectMatrixEmpty(t *testing.T) {
	var ws Scratch
	sel := ws.Select(nil, nil, 0.5, 0, 0, 0)
	if len(sel.Selected) != 0 || sel.Examined != 0 || sel.TotalMass != 0 {
		t.Fatal("empty row should yield empty selection")
	}
}
