package wicsum

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"vrex/internal/mathx"
)

// refEarlyExit is the early-exit sorter as it was before the lowest bucket
// was split off: it computes every entry's bucket, counting-sorts the whole
// row and walks the buckets from the highest down, each in index order. It
// panics on a row holding NaN or +Inf and on a range whose width underflows
// to 0, so the differential test feeds it none.
func refEarlyExit(mass []float32, counts []int, ratio float64, nBuckets int) RowSelection {
	ratio = min(max(ratio, 0), 1)
	n := len(mass)
	sel := RowSelection{}
	if n == 0 {
		return sel
	}
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
	if maxv == minv {
		for j := 0; j < n; j++ {
			sel.Examined++
			sel.Selected = append(sel.Selected, j)
			sel.MassCovered += float64(float64(mass[j]) * float64(counts[j]))
			if sel.MassCovered > th {
				break
			}
		}
		return sel
	}
	width := (maxv - minv) / float32(nBuckets)
	bucketCount := make([]int, nBuckets)
	entryBucket := make([]int, n)
	for j, v := range mass {
		b := int((v - minv) / width)
		if b >= nBuckets {
			b = nBuckets - 1
		}
		entryBucket[j] = b
		bucketCount[b]++
	}
	bucketStart := make([]int, nBuckets)
	pos := 0
	for b := 0; b < nBuckets; b++ {
		bucketStart[b] = pos
		pos += bucketCount[b]
	}
	items := make([]int, n)
	fill := append([]int(nil), bucketStart...)
	for j, b := range entryBucket {
		items[fill[b]] = j
		fill[b]++
	}
	for b := nBuckets - 1; b >= 0; b-- {
		end := n
		if b+1 < nBuckets {
			end = bucketStart[b+1]
		}
		for _, j := range items[bucketStart[b]:end] {
			sel.Examined++
			sel.Selected = append(sel.Selected, j)
			sel.MassCovered += float64(float64(mass[j]) * float64(counts[j]))
			if sel.MassCovered > th {
				return sel
			}
		}
	}
	return sel
}

// sameSelection reports whether two row selections agree bit for bit:
// Selected in order, Examined, and both masses' float64 bits.
func sameSelection(a, b RowSelection) bool {
	if len(a.Selected) != len(b.Selected) || a.Examined != b.Examined ||
		math.Float64bits(a.MassCovered) != math.Float64bits(b.MassCovered) ||
		math.Float64bits(a.TotalMass) != math.Float64bits(b.TotalMass) {
		return false
	}
	for i := range a.Selected {
		if a.Selected[i] != b.Selected[i] {
			return false
		}
	}
	return true
}

// edgeRow fills mass with values on the early-exit sorter's bucket edges:
// each entry is minv + k*width for a random k in [0, nBuckets], where minv
// and width are the ones the sorter computes from the row's minimum and
// maximum. It returns how many entries lie exactly width above the minimum,
// the case the split's >= decides.
func edgeRow(rng *mathx.RNG, mass []float32, nBuckets int) int {
	if len(mass) < 2 {
		for j := range mass {
			mass[j] = rng.Float32()
		}
		return 0
	}
	lo := rng.Float32()
	hi := lo + 0.01 + 4*rng.Float32()
	if rng.Intn(4) == 0 {
		lo = 0
	}
	width := (hi - lo) / float32(nBuckets)
	onFirstEdge := 0
	for j := range mass {
		v := lo + float32(rng.Intn(nBuckets+1))*width
		if v > hi {
			v = hi
		}
		mass[j] = v
	}
	mass[0], mass[1] = lo, hi
	for _, v := range mass {
		if v-lo == width {
			onFirstEdge++
		}
	}
	return onFirstEdge
}

// TestEarlyExitMatchesCountingSort requires selectRowEarlyExit to match the
// whole-row counting sort it replaced (refEarlyExit) bit for bit on
// Selected (order included), Examined, MassCovered and TotalMass. Rows have
// 0 to 600 entries and one of five shapes: exp-normalised scores, uniform
// values, values on bucket edges, all-equal values, and exp-normalised
// scores with a third of the counts zero. Each runs at 1, 2, 3, 20 and 40
// buckets and at ratios 0, 1 and a random one, through one Scratch that is
// reused throughout, as a SelectTokens worker's is. The exp-normalised rows
// are written by mathx.ExpNormalize given each row's maximum, as
// SelectTokens' exact path writes them; at 20 buckets Select must match
// SelectRowEarlyExit and the reference too.
func TestEarlyExitMatchesCountingSort(t *testing.T) {
	rng := mathx.NewRNG(51)
	rows := 6000
	if testing.Short() {
		rows = 1500
	}
	bucketCounts := []int{1, 2, 3, 20, 40}
	var ws Scratch
	compared, edges, lowestWalks := 0, 0, 0
	mass := make([]float32, 600)
	counts := make([]int, 600)
	weights := make([]float64, 600)
	for r := 0; r < rows; r++ {
		n := rng.Intn(601)
		m, c, w := mass[:n], counts[:n], weights[:n]
		for j := range c {
			c[j] = 1 + rng.Intn(32)
			w[j] = float64(c[j])
		}
		// expNormalize writes m as SelectTokens' exact path does.
		expNormalize := func() {
			maxv := float32(math.Inf(-1))
			for _, v := range m {
				maxv = max(maxv, v)
			}
			mathx.ExpNormalize(m, m, maxv)
		}
		shape := r % 5
		switch shape {
		case 0: // exp-normalised scores, as ReSV's rows
			scale := []float32{0.5, 2, 8}[rng.Intn(3)]
			for j := range m {
				m[j] = rng.Norm32() * scale
			}
			expNormalize()
		case 1: // uniform
			for j := range m {
				m[j] = rng.Float32()
			}
		case 3: // all equal
			v := rng.Float32()
			for j := range m {
				m[j] = v
			}
		case 4: // zero counts on an exp-normalised row
			for j := range m {
				m[j] = rng.Norm32() * 2
				if rng.Intn(3) == 0 {
					c[j], w[j] = 0, 0
				}
			}
			expNormalize()
		}
		for _, nb := range bucketCounts {
			if shape == 2 { // bucket edges, laid out for this bucket count
				edges += edgeRow(rng, m, nb)
			}
			for _, ratio := range []float64{0, 1, 0.05 + 0.9*rng.Float64()} {
				want := refEarlyExit(m, c, ratio, nb)
				ws.Reset()
				got := ws.selectRowEarlyExit(m, w, ratio, nb)
				if !sameSelection(got, want) {
					t.Fatalf("row %d (shape %d, %d entries), %d buckets, ratio %v:\ngot  %+v\nwant %+v", r, shape, n, nb, ratio, got, want)
				}
				if nb == buckets {
					ws.Reset()
					if got := ws.Select(m, w, ratio); !sameSelection(got, want) {
						t.Fatalf("row %d (shape %d, %d entries), ratio %v: Select\ngot  %+v\nwant %+v", r, shape, n, ratio, got, want)
					}
					if got := SelectRowEarlyExit(m, c, ratio, nb); !sameSelection(got, want) {
						t.Fatalf("row %d (shape %d, %d entries), ratio %v: SelectRowEarlyExit\ngot  %+v\nwant %+v", r, shape, n, ratio, got, want)
					}
				}
				if want.TotalMass > 0 && nb > 1 && len(want.Selected) > 0 && walkedLowest(m, want, nb) {
					lowestWalks++
				}
				compared++
			}
		}
	}
	// The mutations this test must catch need rows on the first bucket's
	// lower edge and walks that reach the lowest bucket.
	if edges == 0 || lowestWalks == 0 {
		t.Fatalf("%d entries on the first edge, %d walks into the lowest bucket", edges, lowestWalks)
	}
	t.Logf("%d selections matched; %d entries on the first edge, %d walks into the lowest bucket", compared, edges, lowestWalks)
}

// walkedLowest reports whether a selection examined an entry of the row's
// lowest bucket.
func walkedLowest(mass []float32, sel RowSelection, nBuckets int) bool {
	minv, maxv := mass[0], mass[0]
	for _, v := range mass {
		minv, maxv = min(minv, v), max(maxv, v)
	}
	width := (maxv - minv) / float32(nBuckets)
	for _, j := range sel.Selected {
		if mass[j]-minv < width {
			return true
		}
	}
	return false
}

// TestEarlyExitRowsWithoutAWidth pins rows on which the early-exit sorter
// used to panic with an index out of range: a NaN entry, a +Inf entry, and
// a range whose width underflows to 0 when divided by the bucket count.
// Each must return, and one whose total is not finite selects every entry,
// as the exact SelectRow does.
func TestEarlyExitRowsWithoutAWidth(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	tiny := float32(math.SmallestNonzeroFloat32)
	rows := []struct {
		name string
		mass []float32
	}{
		{"NaN", []float32{0.5, nan, 0.25, 1}},
		{"NaN first", []float32{nan, 0.5, 1}},
		{"+Inf", []float32{0.5, inf, 0.25}},
		{"underflowing width", []float32{tiny, 2 * tiny, tiny}},
	}
	for _, row := range rows {
		counts := make([]int, len(row.mass))
		for j := range counts {
			counts[j] = 1 + j
		}
		for _, nb := range []int{1, 2, 20} {
			t.Run(fmt.Sprintf("%s/%d", row.name, nb), func(t *testing.T) {
				got := SelectRowEarlyExit(row.mass, counts, 0.3, nb)
				exact := SelectRow(row.mass, counts, 0.3)
				if math.IsInf(got.TotalMass, 0) || math.IsNaN(got.TotalMass) {
					seen := make([]bool, len(row.mass))
					for _, j := range got.Selected {
						seen[j] = true
					}
					if len(got.Selected) != len(row.mass) || got.Examined != len(row.mass) || slices.Contains(seen, false) || len(exact.Selected) != len(row.mass) {
						t.Fatalf("total %v: early exit selected %v (%d examined), exact %v; want every entry", got.TotalMass, got.Selected, got.Examined, exact.Selected)
					}
					return
				}
				if got.MassCovered <= 0.3*got.TotalMass {
					t.Fatalf("covered %v of %v", got.MassCovered, got.TotalMass)
				}
			})
		}
	}
}
