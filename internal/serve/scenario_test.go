package serve

import (
	"reflect"
	"testing"

	"vrex/internal/hwsim"
)

// mixConfig is a heterogeneous two-class fleet scenario used across the
// Scenario API tests.
func mixConfig(streams, devices int) Config {
	mix, err := ParseMix("2fps:0.7,4fps:0.3")
	if err != nil {
		panic(err)
	}
	// Keep the classes query-free so frame accounting is easy to reason
	// about in assertions.
	for i := range mix {
		mix[i].Stream.QueryEvery = 0
		mix[i].Stream.StartKV = 5000
	}
	return Config{
		Dev: hwsim.VRex48(), Pol: hwsim.ReSVModel(),
		Streams: streams, Duration: 20, Classes: mix,
		Devices: devices, DropThreshold: 4, Seed: 11,
	}
}

func TestMixAssignsAllClasses(t *testing.T) {
	res := Run(mixConfig(16, 1))
	if len(res.PerClass) != 2 {
		t.Fatalf("want 2 class summaries, got %d", len(res.PerClass))
	}
	bySessions := 0
	for _, cm := range res.PerClass {
		if cm.Sessions == 0 {
			t.Fatalf("class %q drew no sessions in a 16-stream run", cm.Class)
		}
		bySessions += cm.Sessions
	}
	if bySessions != 16 || res.Aggregate.Sessions != 16 {
		t.Fatalf("session accounting: per-class %d, aggregate %d, want 16", bySessions, res.Aggregate.Sessions)
	}
	agg := ClassMetrics{}
	for _, cm := range res.PerClass {
		agg.FramesArrived += cm.FramesArrived
		agg.FramesServed += cm.FramesServed
		agg.QueriesServed += cm.QueriesServed
	}
	if agg.FramesArrived != res.Aggregate.FramesArrived || agg.FramesServed != res.Aggregate.FramesServed {
		t.Fatalf("aggregate != sum of classes: %+v vs %+v", res.Aggregate, agg)
	}
}

func TestMixClassShapesDiffer(t *testing.T) {
	// A 4fps session must arrive ~2x the frames of a 2fps session.
	res := Run(mixConfig(24, 4))
	perArrival := map[string]float64{}
	count := map[string]int{}
	for _, m := range res.PerStream {
		perArrival[m.Class] += float64(m.FramesArrived)
		count[m.Class]++
	}
	mean2 := perArrival["2fps"] / float64(count["2fps"])
	mean4 := perArrival["4fps"] / float64(count["4fps"])
	if mean4 < 1.8*mean2 || mean4 > 2.2*mean2 {
		t.Fatalf("4fps/2fps arrival ratio %v, want ~2", mean4/mean2)
	}
}

func TestFleetSpreadsSessions(t *testing.T) {
	res := Run(mixConfig(16, 4))
	if len(res.PerDevice) != 4 {
		t.Fatalf("want 4 device summaries, got %d", len(res.PerDevice))
	}
	for d, dm := range res.PerDevice {
		if dm.Sessions != 4 {
			t.Fatalf("round-robin device %d got %d sessions, want 4", d, dm.Sessions)
		}
	}
	total := 0
	for _, dm := range res.PerDevice {
		total += dm.FramesServed
	}
	if total != res.Aggregate.FramesServed {
		t.Fatalf("device frames %d != aggregate %d", total, res.Aggregate.FramesServed)
	}
}

func TestFleetScalesCapacity(t *testing.T) {
	cfg := mixConfig(1, 1)
	cfg.Duration = 10
	one := MaxRealTimeStreams(cfg, 48)
	cfg.Devices = 4
	cfg.Balancer = NewLeastLoaded()
	four := MaxRealTimeStreams(cfg, 48)
	if four < 2*one {
		t.Fatalf("4 devices sustain %d streams, single device %d; want >= 2x", four, one)
	}
}

func TestBalancersAreDeterministicAndBounded(t *testing.T) {
	for _, name := range BalancerNames() {
		b, err := NewBalancer(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := mixConfig(12, 3)
		cfg.Balancer = b
		first := Run(cfg)
		// Reuse the same balancer value: Reset must make runs repeatable.
		second := Run(cfg)
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("balancer %q not deterministic across reused runs", name)
		}
		for s, m := range first.PerStream {
			if m.Device < 0 || m.Device >= 3 {
				t.Fatalf("balancer %q placed session %d on device %d", name, s, m.Device)
			}
		}
	}
}

func TestKVAffinityAssign(t *testing.T) {
	b := NewKVAffinity()
	b.Reset(2)
	devs := []DeviceState{
		{Index: 0, ActiveSessions: 2, ClassSessions: []int{2, 0}},
		{Index: 1, ActiveSessions: 2, ClassSessions: []int{0, 2}},
	}
	if d := b.Assign(0, 0, devs); d != 0 {
		t.Fatalf("class 0 should join its clump on device 0, got %d", d)
	}
	if d := b.Assign(0, 1, devs); d != 1 {
		t.Fatalf("class 1 should join its clump on device 1, got %d", d)
	}
	// A device past the balanced share (+1 slack) is ineligible even for its
	// own class: total=4 -> limit ceil(5/2)+1 = 4.
	devs[0] = DeviceState{Index: 0, ActiveSessions: 4, ClassSessions: []int{4, 0}}
	devs[1] = DeviceState{Index: 1, ActiveSessions: 0, ClassSessions: []int{0, 0}}
	if d := b.Assign(0, 0, devs); d != 1 {
		t.Fatalf("overloaded clump must spill, got device %d", d)
	}
}

func TestKVAffinityBalancesLoad(t *testing.T) {
	cfg := mixConfig(12, 2)
	cfg.Balancer = NewKVAffinity()
	res := Run(cfg)
	// The balance constraint keeps per-device session counts within the
	// balanced share plus slack.
	for d, dm := range res.PerDevice {
		if dm.Sessions > 12/2+1 {
			t.Fatalf("device %d holds %d sessions, exceeding share+slack", d, dm.Sessions)
		}
	}
	// And affinity concentrates at least one class: some class must keep a
	// strict majority of its sessions on a single device.
	perClassDev := map[string]map[int]int{}
	perClass := map[string]int{}
	for _, m := range res.PerStream {
		if perClassDev[m.Class] == nil {
			perClassDev[m.Class] = map[int]int{}
		}
		perClassDev[m.Class][m.Device]++
		perClass[m.Class]++
	}
	clumped := false
	for class, devs := range perClassDev {
		for _, n := range devs {
			if 2*n > perClass[class] {
				clumped = true
			}
		}
	}
	if !clumped {
		t.Fatalf("no class clumped on any device: %v", perClassDev)
	}
}

func TestChurnAddsAndRemovesSessions(t *testing.T) {
	cfg := mixConfig(4, 2)
	cfg.Churn = ChurnConfig{ArrivalRate: 0.5, MeanLifetime: 8}
	res := Run(cfg)
	if len(res.PerStream) <= 4 {
		t.Fatalf("open-loop arrivals should add sessions: got %d", len(res.PerStream))
	}
	// With an 8 s mean lifetime over a 20 s run, at least one initial
	// session must depart early and therefore arrive fewer frames than a
	// full-duration session would.
	full := Run(mixConfig(4, 2))
	shorter := false
	for s := 0; s < 4; s++ {
		if res.PerStream[s].FramesArrived < full.PerStream[s].FramesArrived {
			shorter = true
		}
	}
	if !shorter {
		t.Fatal("lifetimes did not truncate any initial session")
	}
}

func TestChurnZeroValueIsInert(t *testing.T) {
	cfg := mixConfig(6, 2)
	a := Run(cfg)
	cfg.Churn = ChurnConfig{}
	b := Run(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("zero-value churn changed results")
	}
}

func TestObserverSeesConsistentEvents(t *testing.T) {
	cfg := mixConfig(6, 2)
	cfg.Churn = ChurnConfig{ArrivalRate: 0.3, MeanLifetime: 10}
	counts := map[EventKind]int{}
	var lastTime float64
	cfg.Observer = ObserverFunc(func(e Event) {
		counts[e.Kind]++
		if e.Time < lastTime {
			t.Fatalf("events out of order: %v after %v", e.Time, lastTime)
		}
		lastTime = e.Time
		if e.Kind != EventSessionStart && e.Device < 0 {
			t.Fatalf("%v event before device assignment", e.Kind)
		}
	})
	res := Run(cfg)
	if counts[EventSessionStart] != len(res.PerStream) || counts[EventSessionEnd] != len(res.PerStream) {
		t.Fatalf("start/end events %d/%d, want %d each",
			counts[EventSessionStart], counts[EventSessionEnd], len(res.PerStream))
	}
	if counts[EventFrameServed] != res.Aggregate.FramesServed {
		t.Fatalf("frame-served events %d != metric %d", counts[EventFrameServed], res.Aggregate.FramesServed)
	}
	if counts[EventFrameDropped] != res.Aggregate.FramesDropped {
		t.Fatalf("frame-dropped events %d != metric %d", counts[EventFrameDropped], res.Aggregate.FramesDropped)
	}
	if counts[EventQueryServed] != res.Aggregate.QueriesServed {
		t.Fatalf("query events %d != metric %d", counts[EventQueryServed], res.Aggregate.QueriesServed)
	}
}

// TestScenarioParallelEquivalence extends the worker-count equivalence
// guarantee to the full Scenario API: mixes, churn and fleets must produce
// identical results for any Workers value.
func TestScenarioParallelEquivalence(t *testing.T) {
	cfg := mixConfig(8, 3)
	cfg.Churn = ChurnConfig{ArrivalRate: 0.4, MeanLifetime: 9}
	cfg.Balancer = NewLeastLoaded()
	cfg.Workers = 1
	seq := Run(cfg)
	for _, w := range []int{2, 8} {
		c := cfg
		c.Workers = w
		if par := Run(c); !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d diverged from sequential", w)
		}
	}
}

// TestMaxRealTimeStreamsMonotone checks the property the bisection in
// MaxRealTimeStreams depends on: the real-time verdict never flips back to
// true as streams are added, and the bisection answer matches a linear scan.
func TestMaxRealTimeStreamsMonotone(t *testing.T) {
	cfg := baseConfig(hwsim.VRex8(), hwsim.ReSVModel(), 1)
	cfg.Classes[0].Stream.StartKV = 10000
	cfg.Duration = 10
	const limit = 10
	linear := 0
	seenFalse := false
	for n := 1; n <= limit; n++ {
		c := cfg
		c.Streams = n
		if Run(c).RealTime {
			if seenFalse {
				t.Fatalf("real-time verdict non-monotone at %d streams", n)
			}
			linear = n
		} else {
			seenFalse = true
		}
	}
	if got := MaxRealTimeStreams(cfg, limit); got != linear {
		t.Fatalf("bisection %d != linear scan %d", got, linear)
	}
	// Raising the limit can only raise the answer.
	prev := 0
	for _, lim := range []int{1, 2, 4, 8, limit} {
		n := MaxRealTimeStreams(cfg, lim)
		if n < prev {
			t.Fatalf("MaxRealTimeStreams not monotone in limit: %d then %d", prev, n)
		}
		if n > lim {
			t.Fatalf("result %d exceeds limit %d", n, lim)
		}
		prev = n
	}
}

// TestChurnPopulationStableUnderStreams: churned sessions derive their
// schedule, class and lifetime from their arrival ordinal, so changing the
// initial stream count must not re-randomise them — the property that keeps
// MaxRealTimeStreams' bisection valid under churn.
func TestChurnPopulationStableUnderStreams(t *testing.T) {
	mk := func(streams int) Config {
		cfg := mixConfig(streams, 2)
		cfg.Churn = ChurnConfig{ArrivalRate: 0.5, MeanLifetime: 9}
		return cfg
	}
	a := Run(mk(3))
	b := Run(mk(5))
	churnA := a.PerStream[3:]
	churnB := b.PerStream[5:]
	if len(churnA) != len(churnB) {
		t.Fatalf("churn population size changed with Streams: %d vs %d", len(churnA), len(churnB))
	}
	for i := range churnA {
		// Scheduling (and so served counts) may differ under different load;
		// the arrival process and class assignment must not.
		if churnA[i].Class != churnB[i].Class || churnA[i].FramesArrived != churnB[i].FramesArrived {
			t.Fatalf("churn session %d re-randomised: %+v vs %+v", i, churnA[i], churnB[i])
		}
	}
	// And the bisection agrees with a linear scan even with churn enabled.
	cfg := mk(1)
	const limit = 6
	linear := 0
	for n := 1; n <= limit; n++ {
		c := cfg
		c.Streams = n
		if !Run(c).RealTime {
			break
		}
		linear = n
	}
	if got := MaxRealTimeStreams(cfg, limit); got != linear {
		t.Fatalf("bisection %d != linear scan %d under churn", got, linear)
	}
}

func TestAchievedFPSUsesPresenceWindow(t *testing.T) {
	// A churned session present for a fraction of the run still reports its
	// true per-window rate, not a duration-diluted one.
	cfg := mixConfig(2, 2)
	cfg.Churn = ChurnConfig{ArrivalRate: 0.6, MeanLifetime: 6}
	res := Run(cfg)
	for _, m := range res.PerStream[2:] {
		if m.FramesDropped == 0 && m.FramesArrived > 4 && m.AchievedFPS < 0.9 {
			t.Fatalf("drop-free session reports diluted FPS %v: %+v", m.AchievedFPS, m)
		}
	}
}

func TestParseMix(t *testing.T) {
	mix, err := ParseMix("2fps:0.7,4fps:0.3")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 2 || mix[0].Name != "2fps" || mix[0].Weight != 0.7 || mix[1].Stream.FPS != 4 {
		t.Fatalf("mix parsed wrong: %+v", mix)
	}
	if _, err := ParseMix("2fps"); err != nil {
		t.Fatalf("weightless term should default to 1: %v", err)
	}
	for _, bad := range []string{"", "nosuch:1", "2fps:-1", "2fps:zero", "2fps:0.5,2fps:0.5"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) should fail", bad)
		}
	}
}

func TestNewBalancerUnknown(t *testing.T) {
	if _, err := NewBalancer("nosuch"); err == nil {
		t.Fatal("unknown balancer should error")
	}
}
