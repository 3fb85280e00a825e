package cluster_test

import (
	"runtime"
	"testing"

	"vrex/internal/cluster"
	"vrex/internal/scenario"
	"vrex/scenarios"
)

// BenchmarkClusterRun times the cluster plane on the committed node-fault
// scenario, compiled as written and run at one worker: session routing, the
// node drain with its live KV migrations, and the serve engine beneath them.
// Besides ns/op it reports ns/event and allocs/event, counting a run's events
// as BenchmarkServeRun does: frames and queries arrived, plus a start and an
// end per session.
func BenchmarkClusterRun(b *testing.B) {
	const name = "node-fault.vrex"
	src, err := scenarios.Source(name)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := scenario.Parse(name, src)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := sc.ClusterConfig()
	if err != nil {
		b.Fatal(err)
	}
	cfg.Base.Workers = 1
	a := cluster.Run(cfg).Serve.Aggregate
	events := a.FramesArrived + a.QueriesServed + a.QueriesDropped + 2*a.Sessions
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b.Loop() {
		cluster.Run(cfg)
	}
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(events)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/event")
}
