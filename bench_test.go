// Package vrex's top-level benchmarks regenerate every table and figure of
// the paper through the experiment runners (one benchmark per artifact), and
// additionally benchmark the core algorithm kernels so `go test -bench=.`
// reports both reproduction output cost and kernel-level throughput.
package vrex_test

import (
	"io"
	"testing"

	"vrex/internal/core"
	"vrex/internal/experiments"
	"vrex/internal/hashbit"
	"vrex/internal/hwsim"
	"vrex/internal/kvpool"
	"vrex/internal/mathx"
	"vrex/internal/model"
	"vrex/internal/parallel"
	"vrex/internal/report"
	"vrex/internal/serve"
	"vrex/internal/telemetry"
	"vrex/internal/tensor"
	"vrex/internal/wicsum"
	"vrex/internal/workload"
)

// heavyExperiments run full accuracy evaluations even in Quick mode; they
// dominate bench wall time (several seconds each), so the -short smoke run
// used by CI skips them.
var heavyExperiments = map[string]bool{
	"tab2": true, "fig19": true, "multiturn": true,
	"sweep-thwics": true, "sweep-thhd": true, "sweep-nhp": true,
}

// benchExperiment drives one experiment runner end to end in Quick mode.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	if testing.Short() && heavyExperiments[id] {
		b.Skipf("experiment %s runs full-fidelity sessions; skipped in -short", id)
	}
	opts := experiments.Options{Sessions: 2, Seed: 7, Quick: true}
	for i := 0; i < b.N; i++ {
		if err := experiments.RunMany([]string{id}, opts, io.Discard, report.FormatText); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4aMemoryFootprint(b *testing.B)  { benchExperiment(b, "fig4a") }
func BenchmarkFig4bLatencyBreakdown(b *testing.B) { benchExperiment(b, "fig4b") }
func BenchmarkFig4cRetrievalOverhead(b *testing.B) {
	benchExperiment(b, "fig4c")
}
func BenchmarkFig7Similarity(b *testing.B)     { benchExperiment(b, "fig7") }
func BenchmarkFig13LatencyEnergy(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFig14E2EBreakdown(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15Throughput(b *testing.B)    { benchExperiment(b, "fig15") }
func BenchmarkFig16Ablation(b *testing.B)      { benchExperiment(b, "fig16") }
func BenchmarkFig17Bandwidth(b *testing.B)     { benchExperiment(b, "fig17") }
func BenchmarkFig18Roofline(b *testing.B)      { benchExperiment(b, "fig18") }
func BenchmarkFig19ReSVAblation(b *testing.B)  { benchExperiment(b, "fig19") }
func BenchmarkFig20RatioDistribution(b *testing.B) {
	benchExperiment(b, "fig20")
}
func BenchmarkMemoryPressure(b *testing.B) { benchExperiment(b, "memory") }

// BenchmarkScheduler drives the continuous-batching scheduler plane end to
// end through the slo experiment (load x policy x batch-cap sweep).
func BenchmarkScheduler(b *testing.B) { benchExperiment(b, "slo") }

// BenchmarkScenarioSuite drives the committed .vrex workload suite plus the
// adversarial load-shape search through the scenarios experiment.
func BenchmarkScenarioSuite(b *testing.B) { benchExperiment(b, "scenarios") }

// BenchmarkCluster drives the cluster plane end to end through the cluster
// experiment (node x router sweep, drain + recovery over LAN/WAN with live
// KV migration, autoscaler cold start).
func BenchmarkCluster(b *testing.B) { benchExperiment(b, "cluster") }

// BenchmarkPareto drives the degradation plane end to end through the pareto
// experiment (scheduler x eviction x degrader sweep over a KV-starved flash
// crowd).
func BenchmarkPareto(b *testing.B)          { benchExperiment(b, "pareto") }
func BenchmarkTable1Hardware(b *testing.B)  { benchExperiment(b, "tab1") }
func BenchmarkTable2Accuracy(b *testing.B)  { benchExperiment(b, "tab2") }
func BenchmarkTable3AreaPower(b *testing.B) { benchExperiment(b, "tab3") }

// BenchmarkTelemetry drives the observability plane end to end through the
// telemetry experiment (cluster drain scenario with a collector attached,
// span reconstruction, Chrome trace and Prometheus exports).
func BenchmarkTelemetry(b *testing.B) { benchExperiment(b, "telemetry") }

// telemetryBenchConfig is the serving run BenchmarkTelemetryOverhead prices:
// scheduler + KV pressure so the hot paths with telemetry hooks (frame
// service, paging, batching) all execute.
func telemetryBenchConfig() serve.Config {
	sched, err := serve.ParseScheduler("edf")
	if err != nil {
		panic(err)
	}
	sp, err := kvpool.ParseSpill("spill(evict=lru,pages=8)")
	if err != nil {
		panic(err)
	}
	classes, err := serve.ParseMix("2fps:0.7,4fps:0.3")
	if err != nil {
		panic(err)
	}
	for i := range classes {
		classes[i].Stream.StartKV = 8000
	}
	return serve.Config{
		Dev: hwsim.VRex8(), Pol: hwsim.ReSVModel(),
		Streams: 8, Duration: 10, Classes: classes, Devices: 2,
		KV:            serve.KVConfig{Capacity: 35 * 256 * 131072, Spill: sp},
		Scheduler:     serve.SchedulerConfig{Policy: sched, BatchMax: 4},
		DropThreshold: 4, Seed: 7,
	}
}

// BenchmarkTelemetryOverhead isolates the cost of the telemetry hooks at both
// levels. step/* prices the hot simulation path (a frame-phase hwsim.Chunk)
// with phase attribution detached vs attached: the nil check and the
// attached handful of float adds are both below what a shared machine
// resolves (see EXPERIMENTS.md "Telemetry" for a -count=10 capture). run/*
// prices a whole serving run with the plane disabled vs a full collector +
// profile attached; the delta there is event buffering, the price of keeping
// every observation.
func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("step/nil", func(b *testing.B) {
		sim := hwsim.NewSim(hwsim.VRex8(), hwsim.Llama3_8B(), hwsim.ReSVModel())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = sim.Chunk(10, 40000, 1, hwsim.StageFramePhase)
		}
	})
	b.Run("step/profiled", func(b *testing.B) {
		sim := hwsim.NewSim(hwsim.VRex8(), hwsim.Llama3_8B(), hwsim.ReSVModel())
		sim.Phases = &hwsim.PhaseAccount{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = sim.Chunk(10, 40000, 1, hwsim.StageFramePhase)
		}
	})
	b.Run("run/nil", func(b *testing.B) {
		cfg := telemetryBenchConfig()
		for i := 0; i < b.N; i++ {
			_ = serve.Run(cfg)
		}
	})
	b.Run("run/collected", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := telemetryBenchConfig()
			col := telemetry.NewCollector()
			col.Attach(&cfg)
			_ = serve.Run(cfg)
		}
	})
}

// benchRunAll dispatches the full registry through the parallel engine with
// the given worker count (Quick mode, accuracy sessions trimmed); comparing
// the two benchmarks below shows the experiment-level fan-out win directly.
func benchRunAll(b *testing.B, workers int) {
	b.Helper()
	if testing.Short() {
		b.Skip("full registry dispatch; skipped in -short")
	}
	opts := experiments.Options{Sessions: 2, Seed: 7, Quick: true, Parallel: workers}
	for i := 0; i < b.N; i++ {
		if err := experiments.RunMany(experiments.IDs(), opts, io.Discard, report.FormatText); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunAllSequential(b *testing.B) { benchRunAll(b, 1) }
func BenchmarkRunAllParallel(b *testing.B)   { benchRunAll(b, 0) }

// --- Kernel-level benchmarks ---

// BenchmarkParallelMapOverhead measures the pool's fixed fan-out/fan-in cost
// on trivial tasks (the floor for any sharded kernel).
func BenchmarkParallelMapOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = parallel.Map(0, 64, func(i int) int { return i })
	}
}

// BenchmarkHashBitClustering measures ReSV stage 1 on a frame of keys
// against a grown cluster table (the HCU's work).
func BenchmarkHashBitClustering(b *testing.B) {
	const dim, tokens = 1024, 10
	rng := mathx.NewRNG(1)
	cl := hashbit.NewClusterer(dim, 32, 7, rng.Split())
	warm := tensor.NewMatrix(320, dim)
	warm.Randomize(rng, 1)
	cl.AddFrame(warm, 0)
	frame := tensor.NewMatrix(tokens, dim)
	frame.Randomize(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.AddFrame(frame, 320+i*tokens)
	}
}

// BenchmarkHamming measures the raw XOR-accumulate primitive.
func BenchmarkHamming(b *testing.B) {
	x := hashbit.Signature{0xdeadbeefcafebabe}
	y := hashbit.Signature{0x0123456789abcdef}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = hashbit.Hamming(x, y)
	}
}

// BenchmarkWiCSumExact measures exact WiCSum thresholding on a 1250-cluster
// row (the 40K-cache operating point: 40K tokens / 32 per cluster).
func BenchmarkWiCSumExact(b *testing.B) {
	rng := mathx.NewRNG(2)
	mass := make([]float32, 1250)
	counts := make([]int, 1250)
	for i := range mass {
		mass[i] = rng.Float32()
		counts[i] = 1 + rng.Intn(64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = wicsum.SelectRow(mass, counts, 0.3)
	}
}

// BenchmarkWiCSumEarlyExit measures the WTU dataflow on the same row.
func BenchmarkWiCSumEarlyExit(b *testing.B) {
	rng := mathx.NewRNG(2)
	mass := make([]float32, 1250)
	counts := make([]int, 1250)
	for i := range mass {
		mass[i] = rng.Float32()
		counts[i] = 1 + rng.Intn(64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = wicsum.SelectRowEarlyExit(mass, counts, 0.3, 20)
	}
}

// forwardCycle is the number of frames the forward benchmarks time per
// warm-up: op i forwards frame i%forwardCycle, and before each cycle the
// model and retriever are reset and re-warmed with the timer stopped. The
// KV context an op sees (200 to 350 tokens) is then the same whatever b.N
// is; appending every op to one model made ns/op grow with b.N.
const forwardCycle = 16

// benchModelForward times one 10-token frame forward per op under r on that
// fixed cyclic schedule. reset clears r's state along with the model's.
func benchModelForward(b *testing.B, r model.Retriever, reset func()) {
	cfg := model.DefaultConfig()
	m := model.New(cfg)
	rng := mathx.NewRNG(3)
	warm := tensor.NewMatrix(200, cfg.Dim)
	warm.Randomize(rng, 1)
	frames := make([]*tensor.Matrix, forwardCycle)
	for f := range frames {
		frames[f] = tensor.NewMatrix(10, cfg.Dim)
		frames[f].Randomize(rng, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := i % forwardCycle
		if f == 0 {
			b.StopTimer()
			m.Reset()
			reset()
			m.Forward(warm, r, model.StageFrame, false)
			b.StartTimer()
		}
		m.Forward(frames[f], r, model.StageFrame, false)
	}
}

// BenchmarkModelForwardDense measures one frame forward with full attention.
func BenchmarkModelForwardDense(b *testing.B) {
	benchModelForward(b, model.DenseRetriever{}, func() {})
}

// BenchmarkModelForwardReSV measures one frame forward under ReSV retrieval.
func BenchmarkModelForwardReSV(b *testing.B) {
	r := core.New(model.DefaultConfig(), core.DefaultConfig())
	benchModelForward(b, r, r.Reset)
}

// BenchmarkHWSimFrame measures the analytic simulator itself.
func BenchmarkHWSimFrame(b *testing.B) {
	sim := hwsim.NewSim(hwsim.VRex8(), hwsim.Llama3_8B(), hwsim.ReSVModel())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sim.FrameLatency(10, 40000, 1)
	}
}

// BenchmarkWorkloadSession measures COIN-like session generation.
func BenchmarkWorkloadSession(b *testing.B) {
	gen := workload.NewGenerator(workload.DefaultConfig(), 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gen.Session(workload.TaskStep, i)
	}
}
