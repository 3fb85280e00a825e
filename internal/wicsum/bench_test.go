package wicsum

import (
	"math"
	"testing"

	"vrex/internal/mathx"
)

// BenchmarkSelectMatrix times one layer's WiCSum selection at resv-stream's
// operating point: 40 rows (a 10-token chunk's queries times 4 heads) over
// 268 candidate clusters, the workload's mean per SelectTokens call, each row
// exp-normalised as ReSV normalises it, with the early-exit sorter at 20
// buckets, ratio 0.3 and one worker. Each row's weighted total, min and max
// come with it, as mathx.ExpNormalizeWeighted returns them to SelectTokens,
// so the preprocess pass is not timed. It reports ns per (row, candidate)
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
			w := make([]float64, cols)
			for j := range w {
				w[j] = float64(1 + rng.Intn(32))
			}
			type row struct {
				mass       []float32
				total      float64
				minv, maxv float32
			}
			rs := make([]row, rows)
			for i := range rs {
				r := &rs[i]
				r.mass = make([]float32, cols)
				maxv := float32(math.Inf(-1))
				for j := range r.mass {
					r.mass[j] = rng.Norm32() * c.scale
					maxv = max(maxv, r.mass[j])
				}
				r.total, r.minv, r.maxv = mathx.ExpNormalizeWeighted(r.mass, r.mass, maxv, w)
			}
			var ws Scratch
			sels := make([]RowSelection, rows)
			run := func() {
				ws.Reset()
				for i, r := range rs {
					sels[i] = ws.Select(r.mass, w, 0.3, r.total, r.minv, r.maxv)
				}
			}
			run() // size the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows*cols), "ns/entry")
		})
	}
}
