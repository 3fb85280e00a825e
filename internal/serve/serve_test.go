package serve

import (
	"testing"

	"vrex/internal/hwsim"
)

func baseConfig(dev hwsim.DeviceSpec, pol hwsim.PolicyModel, streams int) Config {
	sc := DefaultStreamConfig()
	sc.QueryEvery = 0 // frames only unless a test wants queries
	return Config{
		Dev: dev, Pol: pol,
		Streams:       streams,
		Duration:      20,
		Classes:       []StreamClass{{Name: "default", Weight: 1, Stream: sc}},
		DropThreshold: 4,
		Seed:          1,
	}
}

func TestSingleStreamVRexRealTime(t *testing.T) {
	cfg := baseConfig(hwsim.VRex8(), hwsim.ReSVModel(), 1)
	res := Run(cfg)
	if !res.RealTime {
		t.Fatalf("V-Rex8 must sustain one 2 FPS stream: %+v", res.PerStream[0])
	}
	m := res.PerStream[0]
	if m.AchievedFPS < 1.8 {
		t.Fatalf("achieved FPS %v, want ~2", m.AchievedFPS)
	}
	if m.FinalKV <= cfg.Classes[0].Stream.StartKV {
		t.Fatal("KV must grow as frames are served")
	}
	if m.P50 <= 0 || m.P99 < m.P50 {
		t.Fatalf("latency percentiles inconsistent: p50=%v p99=%v", m.P50, m.P99)
	}
}

func TestBacklogDropsFrames(t *testing.T) {
	// AGX+FlexGen at a large cache cannot keep up with 2 FPS x 4 streams;
	// frames must drop.
	cfg := baseConfig(hwsim.AGXOrin(), hwsim.FlexGenModel(), 4)
	cfg.Classes[0].Stream.StartKV = 20000
	res := Run(cfg)
	if res.RealTime {
		t.Fatal("overloaded GPU should not be real-time")
	}
	dropped := 0
	for _, m := range res.PerStream {
		dropped += m.FramesDropped
	}
	if dropped == 0 {
		t.Fatal("backlog should drop frames")
	}
}

func TestDroppedFramesDontGrowKV(t *testing.T) {
	cfg := baseConfig(hwsim.AGXOrin(), hwsim.FlexGenModel(), 4)
	cfg.Classes[0].Stream.StartKV = 20000
	res := Run(cfg)
	for s, m := range res.PerStream {
		want := cfg.Classes[0].Stream.StartKV + m.FramesServed*cfg.Classes[0].Stream.TokensPerFrame
		if m.FinalKV != want {
			t.Fatalf("stream %d KV %d, want %d (served %d)", s, m.FinalKV, want, m.FramesServed)
		}
	}
}

func TestVRexSustainsMoreStreamsThanGPU(t *testing.T) {
	mk := func(dev hwsim.DeviceSpec, pol hwsim.PolicyModel) Config {
		c := baseConfig(dev, pol, 1)
		c.Classes[0].Stream.StartKV = 10000
		c.Duration = 10
		return c
	}
	gpu := MaxRealTimeStreams(mk(hwsim.AGXOrin(), hwsim.FlexGenModel()), 16)
	vrex := MaxRealTimeStreams(mk(hwsim.VRex8(), hwsim.ReSVModel()), 16)
	if vrex <= gpu {
		t.Fatalf("V-Rex8 streams (%d) should exceed AGX+FlexGen (%d)", vrex, gpu)
	}
}

func TestQueriesServed(t *testing.T) {
	cfg := baseConfig(hwsim.VRex8(), hwsim.ReSVModel(), 1)
	cfg.Classes[0].Stream.QueryEvery = 5
	res := Run(cfg)
	if res.PerStream[0].QueriesServed == 0 {
		t.Fatal("queries should be served")
	}
}

// TestQueryOOMDrops: a query on a session whose KV no longer fits in device
// memory drops like the session's frames, instead of being served in zero
// time, logging an empty step and growing the KV.
func TestQueryOOMDrops(t *testing.T) {
	cfg := baseConfig(hwsim.AGXOrin(), hwsim.DenseModel(), 1)
	cfg.Duration = 10
	cfg.Classes[0].Stream.StartKV = 200000
	cfg.Classes[0].Stream.QueryEvery = 2
	dropped := 0
	cfg.Observer = ObserverFunc(func(ev Event) {
		if ev.Kind == EventQueryDropped {
			dropped++
		}
	})
	res := Run(cfg)
	m := res.PerStream[0]
	if m.FramesServed != 0 || m.FramesDropped != 20 {
		t.Fatalf("frames: %d served, %d dropped; want 0 and 20", m.FramesServed, m.FramesDropped)
	}
	if m.QueriesServed != 0 || m.QueriesDropped != 4 || dropped != 4 {
		t.Fatalf("queries: %d served, %d dropped, %d drop events; want 0, 4, 4",
			m.QueriesServed, m.QueriesDropped, dropped)
	}
	if b := res.PerDevice[0].Batches; b != 0 {
		t.Fatalf("%d hardware steps on a session that fits nowhere, want 0", b)
	}
	if m.FinalKV != 200000 {
		t.Fatalf("dropped work grew the KV to %d", m.FinalKV)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := baseConfig(hwsim.VRex8(), hwsim.ReSVModel(), 3)
	a := Run(cfg)
	b := Run(cfg)
	for s := range a.PerStream {
		if a.PerStream[s] != b.PerStream[s] {
			t.Fatal("serving simulation not deterministic")
		}
	}
}

func TestUtilizationBounds(t *testing.T) {
	res := Run(baseConfig(hwsim.VRex8(), hwsim.ReSVModel(), 2))
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Fatalf("utilization %v out of (0,1]", res.Utilization)
	}
}

func TestRunPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(Config{Streams: 0, Duration: 1})
}

func TestMaxRealTimeStreamsMonotoneBase(t *testing.T) {
	cfg := baseConfig(hwsim.VRex8(), hwsim.ReSVModel(), 1)
	cfg.Duration = 10
	n := MaxRealTimeStreams(cfg, 8)
	if n < 1 {
		t.Fatalf("V-Rex8 should sustain at least one stream, got %d", n)
	}
	// n streams is real-time, n+1 (if within limit) is not.
	c := cfg
	c.Streams = n
	if !Run(c).RealTime {
		t.Fatal("bisection result not actually real-time")
	}
	if n < 8 {
		c.Streams = n + 1
		if Run(c).RealTime {
			t.Fatal("bisection result not maximal")
		}
	}
}
