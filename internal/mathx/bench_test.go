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

// BenchmarkExpNormalize times exp-normalising one scaled score row in place,
// as SelectTokens does: the row is restored from a copy, untimed, between
// ops so every op sees the same inputs.
func BenchmarkExpNormalize(b *testing.B) {
	rng := NewRNG(6)
	src := make([]float32, benchRow)
	for i := range src {
		src[i] = rng.Norm32() * 2
	}
	row := make([]float32, benchRow)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(row, src)
		ExpNormalize(row, row)
	}
	reportPerElement(b, benchRow)
}

// BenchmarkSoftmax times one (query, head) row of attention's softmax at
// BenchmarkAttention's operating point, 250 candidates, into a separate
// destination as model.attention calls it.
func BenchmarkSoftmax(b *testing.B) {
	const n = 250
	rng := NewRNG(7)
	src := make([]float32, n)
	for i := range src {
		src[i] = rng.Norm32() * 2
	}
	dst := make([]float32, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Softmax(dst, src)
	}
	reportPerElement(b, n)
}
