package hwsim

import "testing"

var (
	benchBreakdown Breakdown
	benchTotal     float64
	benchOOM       bool
)

// BenchmarkStep times the cost model's entry points on V-Rex8 + ReSV, the
// shapes the serving engine prices: a one-frame step (10 tokens at 20K KV),
// a four-frame step at mixed KV with one member at a 0.7 budget, the
// per-frame admission check, and a default query (25-token prefill and 39
// answer tokens at 4K KV, 40 priced steps) with its cost per priced token.
func BenchmarkStep(b *testing.B) {
	sim := NewSim(VRex8(), Llama3_8B(), ReSVModel())
	frame := StepReq{NewTokens: 10, KVLen: 20000, Stage: StageFramePhase}
	b.Run("frame-b1", func(b *testing.B) {
		reqs := []StepReq{frame}
		for b.Loop() {
			benchBreakdown = sim.Step(reqs)
		}
	})
	b.Run("frame-b4", func(b *testing.B) {
		reqs := []StepReq{
			{NewTokens: 10, KVLen: 4000, Stage: StageFramePhase},
			{NewTokens: 10, KVLen: 12000, Stage: StageFramePhase},
			{NewTokens: 10, KVLen: 20000, Stage: StageFramePhase, RatioScale: 0.7},
			{NewTokens: 10, KVLen: 36000, Stage: StageFramePhase},
		}
		for b.Loop() {
			benchBreakdown = sim.Step(reqs)
		}
	})
	b.Run("oom", func(b *testing.B) {
		for b.Loop() {
			benchOOM = sim.OOM(frame)
		}
	})
	b.Run("query", func(b *testing.B) {
		const prompt, answer = 25, 39
		q := StepReq{NewTokens: prompt, KVLen: 4000, Stage: StageTextPhase}
		for b.Loop() {
			benchTotal = sim.Query(q, answer)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(prompt+answer), "ns/token")
	})
}
