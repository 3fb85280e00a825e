package core

import (
	"testing"

	"vrex/internal/model"
	"vrex/internal/workload"
)

// BenchmarkSelectTokens times KV prediction for one 10-token frame across
// every layer of the default model, on one worker, in a session warmed with
// benchWarmFrames frames of a workload video. Each op selects at the same
// past boundary with the same queries, so the candidate set, and ns/op, do
// not depend on b.N. It reports ns per scored (query token x head, candidate
// cluster) entry beside ns/op and allocs/op.
func BenchmarkSelectTokens(b *testing.B) {
	const benchWarmFrames = 64
	mcfg := model.DefaultConfig()
	wcfg := workload.DefaultConfig()
	wcfg.Frames = benchWarmFrames + 1
	wcfg.Queries = 0
	frames := workload.NewGenerator(wcfg, mcfg.Dim).Session(workload.TaskStep, 0).FrameEmbeds
	cfg := DefaultConfig()
	cfg.Workers = 1
	m, r := model.New(mcfg), New(mcfg, cfg)
	for _, f := range frames[:benchWarmFrames] {
		m.Forward(f, r, model.StageFrame, false)
	}
	q, base := frames[benchWarmFrames], m.Pos()
	entries := 0
	for l := 0; l < mcfg.Layers; l++ {
		r.SelectTokens(l, m.Cache(l), q, base, model.StageFrame)
		entries += q.Rows * mcfg.Heads * r.HCTable(l).PastClusters()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l := 0; l < mcfg.Layers; l++ {
			r.SelectTokens(l, m.Cache(l), q, base, model.StageFrame)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(entries), "ns/entry")
}
