package wicsum

import (
	"testing"

	"vrex/internal/mathx"
)

// BenchmarkSelectMatrix times one layer's WiCSum selection at resv-stream's
// operating point: 40 rows (a 10-token chunk's queries times 4 heads) over
// 268 candidate clusters, the workload's mean per SelectTokens call, each row
// exp-normalised as ReSV normalises it, with the early-exit sorter at 20
// buckets, ratio 0.3 and one worker. It reports ns per (row, candidate)
// entry and allocs/op.
func BenchmarkSelectMatrix(b *testing.B) {
	const rows, cols = 40, 268
	rng := mathx.NewRNG(8)
	counts := make([]int, cols)
	for j := range counts {
		counts[j] = 1 + rng.Intn(32)
	}
	masses := make([][]float32, rows)
	for i := range masses {
		row := make([]float32, cols)
		for j := range row {
			row[j] = rng.Norm32() * 2
		}
		mathx.ExpNormalize(row, row)
		masses[i] = row
	}
	s := Selector{Ratio: 0.3, Buckets: 20, Workers: 1}
	s.SelectMatrix(masses, counts) // size the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SelectMatrix(masses, counts)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows*cols), "ns/entry")
}
