package mathx

import "testing"

// The kernel benchmarks run at resv-stream's operating point: a row of 268
// candidates (the workload's mean ReSV candidate count per SelectTokens
// call) at the default model's head dim 16. Each reports ns per row element
// beside ns/op.

const benchRow, benchHeadDim = 268, 16

// reportPerElement adds the ns per row element metric.
func reportPerElement(b *testing.B, elems int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(elems), "ns/elem")
}

// BenchmarkScoreKeys times one (query, head) row of ReSV's cluster scoring:
// a widened query against 268 widened representative keys.
func BenchmarkScoreKeys(b *testing.B) {
	rng := NewRNG(5)
	q, keys := make([]float64, benchHeadDim), make([]float64, benchRow*benchHeadDim)
	for i := range q {
		q[i] = float64(rng.Norm32())
	}
	for i := range keys {
		keys[i] = float64(rng.Norm32())
	}
	dst := make([]float32, benchRow)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScoreKeys(dst, q, keys, 0.25)
	}
	reportPerElement(b, benchRow)
}

// BenchmarkExpNormalize times ExpNormalize in place, given the row's
// maximum as ScoreKeys returns it, on one scaled score row and on a gather
// from it as ReSV's bounded path makes one: the first 14 entries
// ExpMassBound flags and the smallest score, 15 entries, about what
// resv-stream's rows gather (13.7 to 15.3 flagged on average). Each row is
// restored from a copy, untimed, between ops so every op sees the same
// inputs.
func BenchmarkExpNormalize(b *testing.B) {
	rng := NewRNG(6)
	src := make([]float32, benchRow)
	for i := range src {
		src[i] = rng.Norm32() * 2
	}
	maxv := rowMax(src)
	_, _, smin, flagged, _ := ExpMassBound(src, maxv, make([]float64, benchRow), nil)
	var gathered []float32
	for _, j := range flagged[:14] {
		gathered = append(gathered, src[j])
	}
	gathered = append(gathered, smin)
	for _, c := range []struct {
		name string
		src  []float32
	}{{"row", src}, {"gathered", gathered}} {
		b.Run(c.name, func(b *testing.B) {
			row := make([]float32, len(c.src))
			for i := 0; i < b.N; i++ {
				copy(row, c.src)
				ExpNormalize(row, row, maxv)
			}
			reportPerElement(b, len(row))
		})
	}
}

// BenchmarkSoftmax times one (query, head) row of attention's softmax at
// BenchmarkAttention's operating point, 250 candidates, into a separate
// destination and given the row's maximum, as model.attention calls it.
func BenchmarkSoftmax(b *testing.B) {
	const n = 250
	rng := NewRNG(7)
	src := make([]float32, n)
	for i := range src {
		src[i] = rng.Norm32() * 2
	}
	dst := make([]float32, n)
	maxv := rowMax(src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Softmax(dst, src, maxv)
	}
	reportPerElement(b, n)
}

// BenchmarkExpMassBound times WiCSum's bounded pass on one layer's rows at
// resv-stream's operating point: 40 rows (a 10-token chunk's queries times
// 4 heads) over 268 candidates, each given its maximum, with past-token
// counts as weights, drawn as wicsum's BenchmarkSelectMatrix draws them.
// The skewed rows draw N(0, 4) scores and flag about 32 entries per row
// (resv-stream's rows flag 13.7 to 15.3); the flat ones (N(0, 0.01)) flag
// every entry. It reports ns per entry, to set beside
// BenchmarkExpNormalize's ns/elem.
func BenchmarkExpMassBound(b *testing.B) {
	for _, c := range []struct {
		name  string
		scale float32
	}{{"skewed", 2}, {"flat", 0.1}} {
		b.Run(c.name, func(b *testing.B) {
			const rows = 40
			rng := NewRNG(8)
			w := make([]float64, benchRow)
			for j := range w {
				w[j] = float64(1 + rng.Intn(32))
			}
			src := make([][]float32, rows)
			maxv := make([]float32, rows)
			for i := range src {
				src[i] = make([]float32, benchRow)
				for j := range src[i] {
					src[i][j] = rng.Norm32() * c.scale
				}
				maxv[i] = rowMax(src[i])
			}
			flagged := make([]int, benchRow)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := range src {
					_, _, _, flagged, _ = ExpMassBound(src[r], maxv[r], w, flagged)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows*benchRow), "ns/entry")
		})
	}
}
