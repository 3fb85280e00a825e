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
// entry and allocs/op. One op thresholds every row through one Scratch
// after one Reset.
//
// The skewed case draws scores N(0, 4), as the workload's rows look: most
// entries land in the lowest bucket, which the sorter walks only if the
// threshold has not tripped above it. The flat case draws them N(0, 0.01),
// so that nearly every entry sits above the lowest bucket and is bucketed
// and sorted: the sorter's worst case.
func BenchmarkSelectMatrix(b *testing.B) {
	for _, c := range []struct {
		name  string
		scale float32
	}{{"skewed", 2}, {"flat", 0.1}} {
		b.Run(c.name, func(b *testing.B) {
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
					row[j] = rng.Norm32() * c.scale
				}
				mathx.ExpNormalize(row, row)
				masses[i] = row
			}
			var ws Scratch
			sels := make([]RowSelection, rows)
			selectAll(&ws, sels, masses, counts, 0.3) // size the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				selectAll(&ws, sels, masses, counts, 0.3)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows*cols), "ns/entry")
		})
	}
}
