package experiments

import (
	"vrex/internal/hwsim"
	"vrex/internal/report"
	"vrex/internal/serve"
)

// ScaleServing quantifies the paper's closing claim ("clear potential for
// scalable deployment in large-scale server environments"): the maximum
// number of concurrent 2 FPS streams each system serves in real time
// (>= 95% of frames on time), at mid-session KV lengths, plus per-stream
// quality at a fixed stream count.
func ScaleServing(opts Options) []*report.Table {
	duration := 20.0
	limit := 32
	if opts.Quick {
		duration = 8
		limit = 8
	}
	mk := func(dev hwsim.DeviceSpec, pol hwsim.PolicyModel, kv int) serve.Config {
		sc := serve.DefaultStreamConfig()
		sc.QueryEvery = 0
		sc.StartKV = kv
		return serve.Config{
			Dev: dev, Pol: pol, Streams: 1, Duration: duration,
			Classes:       []serve.StreamClass{{Name: "default", Weight: 1, Stream: sc}},
			DropThreshold: 4, Seed: opts.Seed,
			Workers: opts.Parallel,
		}
	}
	type sys struct {
		dev hwsim.DeviceSpec
		pol hwsim.PolicyModel
	}
	edge := []sys{
		{hwsim.AGXOrin(), hwsim.FlexGenModel()},
		{hwsim.AGXOrin(), hwsim.ReKVModel()},
		{hwsim.VRex8(), hwsim.ReSVModel()},
	}
	server := []sys{
		{hwsim.A100(), hwsim.FlexGenModel()},
		{hwsim.A100(), hwsim.ReKVModel()},
		{hwsim.VRex48(), hwsim.ReSVModel()},
	}

	cap := report.NewTable("Scale: max concurrent real-time 2 FPS streams",
		"system", "kv5K", "kv20K")
	for _, group := range [][]sys{edge, server} {
		for _, s := range group {
			row := []any{s.dev.Name + "+" + s.pol.Name}
			for _, kv := range []int{5000, 20000} {
				row = append(row, serve.MaxRealTimeStreams(mk(s.dev, s.pol, kv), limit))
			}
			cap.AddRow(row...)
		}
	}

	qual := report.NewTable("Scale: per-stream quality at 4 streams, 20K KV",
		"system", "achieved_FPS", "p50_ms", "p99_ms", "dropped_pct", "util_pct")
	for _, s := range append(edge, server...) {
		c := mk(s.dev, s.pol, 20000)
		c.Streams = 4
		res := serve.Run(c)
		var fps, p50, p99, drop, arrived float64
		for _, m := range res.PerStream {
			fps += m.AchievedFPS
			p50 += m.P50
			p99 += m.P99
			drop += float64(m.FramesDropped)
			arrived += float64(m.FramesArrived)
		}
		n := float64(len(res.PerStream))
		qual.AddRow(s.dev.Name+"+"+s.pol.Name, fps/n, 1000*p50/n, 1000*p99/n,
			100*drop/arrived, 100*res.Utilization)
	}
	return []*report.Table{cap, qual}
}
