package cluster

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"vrex/internal/hwsim"
	"vrex/internal/memsim"
	"vrex/internal/serve"
)

// baseServe is the shared workload: 1 FPS streams (one VRex8 sustains ~5.8
// frames/s, so a drained node's sessions consolidate without overload).
func baseServe(streams int) serve.Config {
	sc := serve.DefaultStreamConfig()
	sc.QueryEvery = 0
	sc.FPS = 1
	return serve.Config{
		Pol:           hwsim.ReSVModel(),
		Streams:       streams,
		Duration:      20,
		Classes:       []serve.StreamClass{{Name: "default", Weight: 1, Stream: sc}},
		DropThreshold: 4,
		Seed:          1,
	}
}

func twoNodes() []NodeSpec {
	return []NodeSpec{
		{Name: "a", Region: "us", Spec: hwsim.VRex8(), Devices: 2},
		{Name: "b", Region: "us", Spec: hwsim.VRex8(), Devices: 2},
	}
}

func TestSingleNodeReducesToServe(t *testing.T) {
	// A one-node, no-fault cluster must compile to exactly the serve run it
	// wraps: same balancer behaviour (the composite delegates), no control
	// plane, homogeneous sim sharing.
	for _, devices := range []int{1, 3} {
		direct := baseServe(4)
		direct.Dev = hwsim.VRex8()
		direct.Devices = devices
		want := serve.Run(direct)

		got := Run(Config{
			Nodes: []NodeSpec{{Spec: hwsim.VRex8(), Devices: devices}},
			Base:  baseServe(4),
		})
		if !reflect.DeepEqual(want, got.Serve) {
			t.Fatalf("devices=%d: single-node cluster diverged from serve.Run", devices)
		}
		if got.PerNode[0].FramesServed != want.Aggregate.FramesServed {
			t.Fatalf("node metrics lost frames: %d != %d",
				got.PerNode[0].FramesServed, want.Aggregate.FramesServed)
		}
	}
}

func TestSingleNodeSchedulerAndKVReduces(t *testing.T) {
	// The reduction must hold with the scheduler and memory-pressure planes
	// on too — the cluster compiler may not perturb either.
	mk := func() serve.Config {
		cfg := baseServe(4)
		cfg.Dev = hwsim.VRex8()
		cfg.Scheduler = serve.SchedulerConfig{Policy: mustScheduler(t, "edf"), BatchMax: 4}
		cfg.KV = serve.KVConfig{Capacity: serve.AutoCapacity}
		return cfg
	}
	direct := mk()
	direct.Devices = 2
	want := serve.Run(direct)
	got := Run(Config{
		Nodes: []NodeSpec{{Spec: hwsim.VRex8(), Devices: 2}},
		Base:  mk(),
	})
	if !reflect.DeepEqual(want, got.Serve) {
		t.Fatal("single-node cluster with scheduler+KV diverged from serve.Run")
	}
}

func TestMultiNodeSpreadsLoad(t *testing.T) {
	res := Run(Config{Nodes: twoNodes(), Base: baseServe(8)})
	if res.PerNode[0].Sessions == 0 || res.PerNode[1].Sessions == 0 {
		t.Fatalf("round-robin router left a node empty: %+v", res.PerNode)
	}
	if got := res.PerNode[0].Sessions + res.PerNode[1].Sessions; got != 8 {
		t.Fatalf("placed %d sessions, want 8", got)
	}
	if res.Serve.Migrations.Live != 0 || res.Serve.Migrations.Lossy != 0 {
		t.Fatalf("no controller, yet migrations happened: %+v", res.Serve.Migrations)
	}
}

func TestDrainMigratesAndPricesMoves(t *testing.T) {
	cfg := Config{
		Nodes:  twoNodes(),
		Base:   baseServe(8),
		Faults: []Fault{{Kind: FaultDrain, Node: 1, At: 10}},
	}
	res := Run(cfg)
	// All of node b's sessions must have moved to node a, paying real
	// transfer time on both legs.
	mig := res.Serve.Migrations
	if mig.Live == 0 {
		t.Fatal("drain moved nothing")
	}
	if mig.Lossy != 0 {
		t.Fatalf("drain must migrate live, got %d lossy", mig.Lossy)
	}
	if !(mig.Time > 0) || mig.Tokens == 0 {
		t.Fatalf("migration must cost time and move tokens: %+v", mig)
	}
	if res.PerNode[1].MigrationsOut != mig.Live || res.PerNode[0].MigrationsIn != mig.Live {
		t.Fatalf("node migration counters off: %+v", res.PerNode)
	}
	if !(res.PerNode[0].MigrationTime > 0) || !(res.PerNode[1].MigrationTime > 0) {
		t.Fatalf("both nodes' timelines must be charged: %+v", res.PerNode)
	}
	for s, m := range res.Serve.PerStream {
		if m.Device >= 2 { // node b holds devices 2,3
			t.Fatalf("session %d still on drained node (device %d)", s, m.Device)
		}
	}
	if res.Serve.Aggregate.FramesDropped != 0 {
		t.Fatalf("consolidation onto node a must not overload it: %d drops",
			res.Serve.Aggregate.FramesDropped)
	}
	// Deterministic for any worker count.
	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		c := cfg
		c.Base.Workers = w
		if !reflect.DeepEqual(res, Run(c)) {
			t.Fatalf("workers=%d changed the cluster result", w)
		}
	}
}

func TestFailIsLossyAndDipsSLO(t *testing.T) {
	// One device per node so the survivor overloads when node b fails: 8
	// sessions at 1 FPS need ~1.4 devices of VRex8 capacity.
	cfg := Config{
		Nodes: []NodeSpec{
			{Name: "a", Region: "us", Spec: hwsim.VRex8(), Devices: 1},
			{Name: "b", Region: "us", Spec: hwsim.VRex8(), Devices: 1},
		},
		Base:   baseServe(8),
		Faults: []Fault{{Kind: FaultFail, Node: 1, At: 10, Recover: 15}},
	}
	cfg.Base.Scheduler = serve.SchedulerConfig{Policy: mustScheduler(t, "edf"), BatchMax: 8}
	res := Run(cfg)
	if res.Serve.Migrations.Lossy == 0 {
		t.Fatal("failure must re-place sessions lossily")
	}
	if res.Serve.Migrations.Live != 0 {
		t.Fatalf("failure re-placement must not count as live: %+v", res.Serve.Migrations)
	}
	// The windows around the failure must show a worse outcome than the
	// steady state before it (frames arriving just before t=10 sit queued
	// when the device dies, so the dip lands in the windows from 9 on).
	pre := res.Windows[7]
	worst := 1.0
	for _, w := range res.Windows[9:16] {
		if w.Attained < worst {
			worst = w.Attained
		}
	}
	if !(worst < pre.Attained) {
		t.Fatalf("failure must dip windowed SLO attainment: pre=%.3f worst=%.3f", pre.Attained, worst)
	}
	// And the dip must be deterministic.
	if !reflect.DeepEqual(res, Run(cfg)) {
		t.Fatal("failure run not deterministic")
	}
}

func TestCrossRegionMigrationCostsMore(t *testing.T) {
	run := func(regionB string) Result {
		nodes := twoNodes()
		nodes[1].Region = regionB
		return Run(Config{
			Nodes:  nodes,
			Base:   baseServe(8),
			Faults: []Fault{{Kind: FaultDrain, Node: 1, At: 10}},
		})
	}
	lan := run("us")
	wan := run("eu")
	if lan.Serve.Migrations.Live != wan.Serve.Migrations.Live {
		t.Fatalf("same drain, different move counts: %d vs %d",
			lan.Serve.Migrations.Live, wan.Serve.Migrations.Live)
	}
	if !(wan.Serve.Migrations.Time > lan.Serve.Migrations.Time) {
		t.Fatalf("WAN migration must cost more than LAN: wan=%.4f lan=%.4f",
			wan.Serve.Migrations.Time, lan.Serve.Migrations.Time)
	}
}

func TestMigrationCostMatchesHandComputed(t *testing.T) {
	// Pin the pricer against hand-computed memsim numbers: a cross-region
	// move of kv tokens is PageOut(src) + WAN transfer on both legs +
	// PageIn(dst).
	cfg := Config{
		Nodes: []NodeSpec{
			{Region: "us", Spec: hwsim.VRex8(), Devices: 1},
			{Region: "eu", Spec: hwsim.VRex8(), Devices: 1},
		},
		Base: baseServe(2),
	}
	devNode := []int{0, 1}
	cost := migrationPricer(cfg, devNode)

	kv := 1000
	llm := hwsim.Llama3_8B()
	bpt := cfg.Base.Pol.KVBytesPerToken(llm)
	pageTokens := serve.DefaultPageTokens
	pages := (kv + pageTokens - 1) / pageTokens
	spec := hwsim.VRex8()
	bytes := float64(kv) * bpt

	// Source leg: page out through the node's PCIe/SSD mover, then the WAN.
	pcie := spec.Link.TransferTime(float64(pages)*bpt*float64(pageTokens), pages)
	if spec.OffloadSSD != nil {
		if st := spec.OffloadSSD.ReadTime(float64(pages)*bpt*float64(pageTokens), pages); st > pcie {
			pcie = st
		}
	} else if ht := spec.HostMem.AccessTime(float64(pages) * bpt * float64(pageTokens)); ht > pcie {
		pcie = ht
	}
	net := memsim.WAN().TransferTime(bytes, pages)
	wantSrc := pcie + net
	wantDst := net + pcie // same spec both sides: PageIn == PageOut

	gotSrc, gotDst := cost(0, 1, kv)
	if math.Abs(gotSrc-wantSrc) > 1e-12 || math.Abs(gotDst-wantDst) > 1e-12 {
		t.Fatalf("cost(0,1,%d) = (%.9g, %.9g), want (%.9g, %.9g)",
			kv, gotSrc, gotDst, wantSrc, wantDst)
	}
	// Intra-node moves skip the network leg entirely.
	srcOnly, dstOnly := cost(0, 0, kv)
	_ = srcOnly
	_ = dstOnly
	// Zero tokens move nothing.
	if s, d := cost(0, 1, 0); s != 0 || d != 0 {
		t.Fatalf("zero-token move must be free, got (%v, %v)", s, d)
	}
}

func TestAutoscalerScalesOut(t *testing.T) {
	// Start on one node with an overloading population; the queue scaler
	// must bring node b into service and node b must end up doing work.
	// The rebalancer is what physically moves sessions onto the node the
	// scaler brings up — scale-out alone only makes it routable. The
	// scaler's backlog must count queued work, not just the step in flight,
	// under every policy. Both cases serve one frame per step: at edf's
	// default batch cap node a absorbs this population on its own.
	for _, spec := range []string{"none", "edf"} {
		t.Run(spec, func(t *testing.T) {
			sched, err := serve.ParseScheduler(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{
				Nodes:        twoNodes(),
				Base:         baseServe(24),
				Autoscaler:   mustAutoscaler(t, "queue(hi=0.5,lo=0.01)"),
				InitialNodes: 1,
				Rebalance:    RebalanceConfig{MaxMoves: 6, Slack: 1},
			}
			cfg.Base.Classes[0].Stream.FPS = 2
			cfg.Base.Scheduler = serve.SchedulerConfig{Policy: sched, BatchMax: 1}
			res := Run(cfg)
			if res.PerNode[1].FramesServed == 0 {
				t.Fatalf("autoscaler never used node b: %+v", res.PerNode)
			}
			// Deterministic.
			if !reflect.DeepEqual(res, Run(cfg)) {
				t.Fatal("autoscaled run not deterministic")
			}
		})
	}
}

func TestAutoscalerHoldsColdNodesInitially(t *testing.T) {
	// With a scaler that never scales out, InitialNodes=1 must keep all
	// sessions on node a for the whole run.
	cfg := Config{
		Nodes:        twoNodes(),
		Base:         baseServe(4),
		Autoscaler:   mustAutoscaler(t, "queue(hi=1e18,lo=-1)"),
		InitialNodes: 1,
	}
	res := Run(cfg)
	if res.PerNode[1].Sessions != 0 || res.PerNode[1].FramesServed != 0 {
		t.Fatalf("cold node b saw traffic: %+v", res.PerNode[1])
	}
}

func TestRebalanceEvensLoad(t *testing.T) {
	// Affinity-free imbalance: a router that dumps everything on node a,
	// then the rebalancer must move sessions toward node b.
	bad := &staticRouter{node: 0}
	cfg := Config{
		Nodes:     twoNodes(),
		Base:      baseServe(8),
		Router:    bad,
		Rebalance: RebalanceConfig{MaxMoves: 4, Slack: 1},
	}
	res := Run(cfg)
	if res.Serve.Migrations.Live == 0 {
		t.Fatal("rebalancer moved nothing off the hot node")
	}
	if res.PerNode[1].MigrationsIn == 0 {
		t.Fatalf("node b received no sessions: %+v", res.PerNode)
	}
}

// staticRouter always routes to one node (test-only pathological router).
type staticRouter struct{ node int }

func (r *staticRouter) Name() string { return "static" }
func (r *staticRouter) Reset(int)    {}
func (r *staticRouter) Route(_ float64, _ int, nodes []NodeState) int {
	if nodes[r.node].Devices > 0 {
		return r.node
	}
	return leastLoadedNode(nodes)
}

func TestHeterogeneousNodes(t *testing.T) {
	// A V-Rex node and an Orin node: the fleet compiles with per-device
	// specs and the Orin's devices price work on their own (slower) model.
	cfg := Config{
		Nodes: []NodeSpec{
			{Name: "dc", Region: "us", Spec: hwsim.VRex8(), Devices: 1},
			{Name: "edge", Region: "edge", Spec: hwsim.AGXOrin(), Devices: 1},
		},
		Base:   baseServe(2),
		Router: leastLoadedRouter{},
	}
	res := Run(cfg)
	if got := res.PerNode[0].Sessions + res.PerNode[1].Sessions; got != 2 {
		t.Fatalf("placed %d sessions, want 2", got)
	}
	var vrex, orin serve.StreamMetrics
	for _, m := range res.Serve.PerStream {
		if m.Device == 0 {
			vrex = m
		} else {
			orin = m
		}
	}
	if !(orin.P50 > vrex.P50) {
		t.Fatalf("Orin must serve frames slower than V-Rex: orin p50=%.4f vrex p50=%.4f",
			orin.P50, vrex.P50)
	}
}

func TestRoutersAllValid(t *testing.T) {
	for _, name := range RouterNames() {
		r, err := ParseRouter(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg := Config{Nodes: twoNodes(), Base: baseServe(6), Router: r}
		res := Run(cfg)
		if res.Serve.Aggregate.FramesServed == 0 {
			t.Fatalf("router %s served nothing", name)
		}
		if got := res.PerNode[0].Sessions + res.PerNode[1].Sessions; got != 6 {
			t.Fatalf("router %s placed %d sessions, want 6", name, got)
		}
	}
}

func mustScheduler(t *testing.T, spec string) serve.Scheduler {
	t.Helper()
	p, err := serve.ParseScheduler(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustAutoscaler(t *testing.T, spec string) Autoscaler {
	t.Helper()
	a, err := ParseAutoscaler(spec)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestParseRouterAndAutoscaler(t *testing.T) {
	if _, err := ParseRouter("nope"); err == nil {
		t.Fatal("unknown router must error")
	}
	if _, err := ParseRouter("round-robin(bogus=1)"); err == nil {
		t.Fatal("unknown router parameter must error")
	}
	r, err := ParseRouter("")
	if err != nil || r.Name() != "round-robin" {
		t.Fatalf("empty router spec must default to round-robin, got %v, %v", r, err)
	}
	if a, err := ParseAutoscaler(""); err != nil || a != nil {
		t.Fatalf("empty autoscaler spec must disable, got %v, %v", a, err)
	}
	if a, err := ParseAutoscaler("none"); err != nil || a != nil {
		t.Fatalf("none autoscaler must disable, got %v, %v", a, err)
	}
	if _, err := ParseAutoscaler("queue(bogus=1)"); err == nil {
		t.Fatal("unknown autoscaler parameter must error")
	}
	a := mustAutoscaler(t, "slo(target=0.9)")
	if a.Name() != "slo" {
		t.Fatalf("got %s", a.Name())
	}
}

func TestParseNodesAndFaults(t *testing.T) {
	nodes, err := ParseNodes("a100:4@us-east, vrex8:2@eu ,agx@edge")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 || nodes[0].Devices != 4 || nodes[2].Devices != 1 {
		t.Fatalf("bad parse: %+v", nodes)
	}
	if nodes[1].Region != "eu" || nodes[2].Region != "edge" {
		t.Fatalf("bad regions: %+v", nodes)
	}
	if nodes[0].Spec.Name != hwsim.A100().Name {
		t.Fatalf("node 0 spec: %+v", nodes[0].Spec.Name)
	}
	// FormatNodes is a fixed point through ParseNodes.
	s := FormatNodes(nodes)
	again, err := ParseNodes(s)
	if err != nil || FormatNodes(again) != s {
		t.Fatalf("FormatNodes not a fixed point: %q -> %q (%v)", s, FormatNodes(again), err)
	}
	for _, bad := range []string{"", "warp9", "a100:0", "a100:x", "a100@"} {
		if _, err := ParseNodes(bad); err == nil {
			t.Fatalf("ParseNodes(%q) must error", bad)
		}
	}

	faults, err := ParseFaults("drain(node=1,at=30,recover=60); fail(node=0,at=80)")
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{Kind: FaultDrain, Node: 1, At: 30, Recover: 60},
		{Kind: FaultFail, Node: 0, At: 80},
	}
	if !reflect.DeepEqual(faults, want) {
		t.Fatalf("got %+v", faults)
	}
	fs := FormatFaults(faults)
	again2, err := ParseFaults(fs)
	if err != nil || !reflect.DeepEqual(again2, faults) {
		t.Fatalf("FormatFaults not a fixed point: %q (%v)", fs, err)
	}
	if out, err := ParseFaults(""); err != nil || out != nil {
		t.Fatalf("empty fault list: %v, %v", out, err)
	}
	for _, bad := range []string{
		"reboot(node=0,at=1)", "drain(at=1)", "drain(node=0)",
		"drain(node=0,at=5,recover=3)", "drain(node=0,at=1,bogus=2)",
	} {
		if _, err := ParseFaults(bad); err == nil {
			t.Fatalf("ParseFaults(%q) must error", bad)
		}
	}
	// Non-finite numbers are named errors, not faults that panic in Run.
	for _, tc := range []struct{ spec, param string }{
		{"drain(node=1,at=nan)", "at"},
		{"drain(node=1,at=2,recover=nan)", "recover"},
		{"fail(node=1,at=inf)", "at"},
		{"fail(node=-Infinity,at=1)", "node"},
	} {
		_, err := ParseFaults(tc.spec)
		if err == nil || !strings.Contains(err.Error(), "parameter "+tc.param+": bad number") {
			t.Fatalf("ParseFaults(%q) = %v, want a bad-number error naming %s", tc.spec, err, tc.param)
		}
	}
}

func TestValidatePanics(t *testing.T) {
	expectPanic := func(name string, cfg Config) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		Run(cfg)
	}
	expectPanic("no nodes", Config{Base: baseServe(1)})
	expectPanic("zero devices", Config{
		Nodes: []NodeSpec{{Spec: hwsim.VRex8()}}, Base: baseServe(1),
	})
	expectPanic("fault out of range", Config{
		Nodes:  []NodeSpec{{Spec: hwsim.VRex8(), Devices: 1}},
		Base:   baseServe(1),
		Faults: []Fault{{Kind: FaultDrain, Node: 3, At: 1}},
	})
	expectPanic("bad fault kind", Config{
		Nodes:  []NodeSpec{{Spec: hwsim.VRex8(), Devices: 1}},
		Base:   baseServe(1),
		Faults: []Fault{{Kind: "reboot", Node: 0, At: 1}},
	})
}
