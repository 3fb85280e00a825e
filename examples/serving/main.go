// Serving-scale demo: how many concurrent 2 FPS video streams can each
// system keep real-time? This exercises the multi-stream serving simulator
// (internal/serve) behind the paper's closing claim about scalable server
// deployment.
//
//	go run ./examples/serving
package main

import (
	"fmt"

	"vrex/internal/hwsim"
	"vrex/internal/serve"
)

func main() {
	mk := func(dev hwsim.DeviceSpec, pol hwsim.PolicyModel, kv int) serve.Config {
		sc := serve.DefaultStreamConfig()
		sc.StartKV = kv
		sc.QueryEvery = 0
		return serve.Config{
			Dev: dev, Pol: pol, Streams: 1, Duration: 15,
			Classes:       []serve.StreamClass{{Name: "default", Weight: 1, Stream: sc}},
			DropThreshold: 4, Seed: 42,
		}
	}
	systems := []struct {
		dev hwsim.DeviceSpec
		pol hwsim.PolicyModel
	}{
		{hwsim.AGXOrin(), hwsim.FlexGenModel()},
		{hwsim.AGXOrin(), hwsim.ReKVModel()},
		{hwsim.VRex8(), hwsim.ReSVModel()},
		{hwsim.A100(), hwsim.FlexGenModel()},
		{hwsim.VRex48(), hwsim.ReSVModel()},
	}
	fmt.Println("max concurrent real-time 2 FPS streams (95% frames on time)")
	fmt.Printf("%-22s %8s %8s\n", "system", "kv=5K", "kv=20K")
	for _, s := range systems {
		n5 := serve.MaxRealTimeStreams(mk(s.dev, s.pol, 5000), 32)
		n20 := serve.MaxRealTimeStreams(mk(s.dev, s.pol, 20000), 32)
		fmt.Printf("%-22s %8d %8d\n", s.dev.Name+"+"+s.pol.Name, n5, n20)
	}

	fmt.Println()
	fmt.Println("3 streams at 20K KV on V-Rex8, with interleaved queries:")
	cfg := mk(hwsim.VRex8(), hwsim.ReSVModel(), 20000)
	cfg.Streams = 3
	cfg.Classes[0].Stream.QueryEvery = 10
	res := serve.Run(cfg)
	for i, m := range res.PerStream {
		fmt.Printf("  stream %d: %.1f FPS, p50 %.0f ms, p99 %.0f ms, %d queries, %d dropped\n",
			i, m.AchievedFPS, m.P50*1000, m.P99*1000, m.QueriesServed, m.FramesDropped)
	}
	fmt.Printf("  device utilization: %.0f%%\n", 100*res.Utilization)
}
