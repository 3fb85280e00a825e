package serve_test

import (
	"runtime"
	"strings"
	"testing"

	"vrex/internal/scenario"
	"vrex/internal/serve"
	"vrex/scenarios"
)

// BenchmarkServeRun times the serve engine alone on each committed
// single-node scenario, compiled as written and run at one worker. Besides
// ns/op it reports ns/event and allocs/event, where a run's events are its
// arrivals as counted from its Result: frames and queries arrived, plus a
// start and an end per session.
func BenchmarkServeRun(b *testing.B) {
	for _, name := range scenarios.Names() {
		src, err := scenarios.Source(name)
		if err != nil {
			b.Fatal(err)
		}
		sc, err := scenario.Parse(name, src)
		if err != nil {
			b.Fatal(err)
		}
		if sc.IsCluster() {
			continue
		}
		cfg, err := sc.Config()
		if err != nil {
			b.Fatal(err)
		}
		cfg.Workers = 1
		b.Run(strings.TrimSuffix(name, ".vrex"), func(b *testing.B) {
			a := serve.Run(cfg).Aggregate
			events := a.FramesArrived + a.QueriesServed + a.QueriesDropped + 2*a.Sessions
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for b.Loop() {
				serve.Run(cfg)
			}
			runtime.ReadMemStats(&after)
			n := float64(b.N) * float64(events)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/event")
		})
	}
}
