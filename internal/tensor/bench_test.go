package tensor

import (
	"fmt"
	"testing"

	"vrex/internal/mathx"
)

// The kernel benchmarks run at the shapes the resv-stream workload traces
// through the default model (10-token frames, width 64, FFN width 128) on
// one worker, and report ns per output element beside ns/op.

var benchSink *Matrix

// reportPerElement adds the ns per output element metric.
func reportPerElement(b *testing.B, elems int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(elems), "ns/elem")
}

// BenchmarkMatMul times the model's projections on one frame: the attention
// projections (64x64), the FFN gate and up projections (64x128) and the FFN
// down projection (128x64).
func BenchmarkMatMul(b *testing.B) {
	SetWorkers(1)
	defer SetWorkers(0)
	for _, sh := range [][3]int{{10, 64, 64}, {10, 64, 128}, {10, 128, 64}} {
		rows, inner, cols := sh[0], sh[1], sh[2]
		b.Run(fmt.Sprintf("%dx%dx%d", rows, inner, cols), func(b *testing.B) {
			rng := mathx.NewRNG(7)
			x, w := NewMatrix(rows, inner), NewMatrix(inner, cols)
			x.Randomize(rng, 1)
			w.Randomize(rng, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = MatMul(x, w)
			}
			reportPerElement(b, rows*cols)
		})
	}
}

// BenchmarkSiLU times the FFN's activation on one frame: a 10 x 128 gate
// matrix, restored from a copy before each op (the copy is timed too, a few
// percent of the op), so every op sees the same inputs. It reports ns per
// element beside ns/op.
func BenchmarkSiLU(b *testing.B) {
	rng := mathx.NewRNG(9)
	src := NewMatrix(10, 128)
	src.Randomize(rng, 1)
	m := src.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(m.Data, src.Data)
		SiLU(m)
	}
	reportPerElement(b, len(m.Data))
}
