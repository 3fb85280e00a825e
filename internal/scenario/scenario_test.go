package scenario

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"vrex/internal/cluster"
	"vrex/internal/hwsim"
	"vrex/internal/mathx"
	"vrex/internal/serve"
)

// full exercises every grammar feature except traces.
const full = `# rush hour with a correlated 4fps burst
scenario rush-hour
duration 30
seed 11
streams 4
devices 2
device vrex8
policy rekv(frame=0.58,text=0.31)
balancer least-loaded
scheduler edf
batch-max 8
slo-ms 700
drop 6
kv-capacity 8
spill spill(evict=lru,pages=4)
degrade hybrid(lo=0.15,hi=0.4,step=0.8)
arrivals diurnal(rate=0.8,amp=0.9,period=12,phase=3)
lifetime pareto(shape=1.3,scale=4)
class 2fps(weight=0.7,slo-ms=500)
class 4fps(weight=0.3,priority=0,burst-rate=1.5,burst-at=10,burst-dur=5)
`

func TestParseMarshalRoundTrip(t *testing.T) {
	s, err := Parse("full.vrex", []byte(full))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "rush-hour" || s.Arrival.Kind != "diurnal" || s.Arrival.Phase != 3 ||
		s.Lifetime.Shape != 1.3 || s.Classes[1].Burst == nil || s.Classes[1].Priority != 0 {
		t.Fatalf("parse lost fields: %+v", s)
	}
	m1 := s.Marshal()
	s2, err := Parse("marshal", m1)
	if err != nil {
		t.Fatalf("Marshal output must re-parse: %v\n%s", err, m1)
	}
	if !reflect.DeepEqual(s, s2) {
		t.Fatalf("Parse(Marshal(s)) != s:\n%+v\n%+v", s, s2)
	}
	if m2 := s2.Marshal(); string(m1) != string(m2) {
		t.Fatalf("Marshal is not a fixed point:\n%s\n%s", m1, m2)
	}
}

func TestParseTraceScenario(t *testing.T) {
	src := `scenario replay
streams 0
arrivals trace
class 2fps(weight=1)
class 4fps(weight=1)
trace at=0,class=2fps,life=8
trace at=1.5,class=4fps,life=0
trace at=3,class=2fps,life=2.5
`
	s, err := Parse("replay.vrex", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Trace) != 3 || s.Trace[1].Class != "4fps" || s.Trace[2].Lifetime != 2.5 {
		t.Fatalf("trace lost: %+v", s.Trace)
	}
	s2, err := Parse("marshal", s.Marshal())
	if err != nil || !reflect.DeepEqual(s, s2) {
		t.Fatalf("trace round trip: %v\n%+v\n%+v", err, s, s2)
	}
}

func TestParseErrors(t *testing.T) {
	for _, tc := range []struct{ name, src, want string }{
		{"unknown key", "durration 5\n", "unknown key"},
		{"duplicate key", "duration 5\nduration 6\n", "duplicate"},
		{"missing value", "duration\n", "needs a value"},
		{"bad number", "duration twenty\n", "bad number"},
		{"bad arrival", "arrivals bimodal(rate=1)\n", "unknown process"},
		{"bad arrival param", "arrivals poisson(rte=1)\n", "rte"},
		{"bad lifetime", "lifetime weibull(k=1)\n", "unknown distribution"},
		{"bad class", "class warp(weight=1)\n", "unknown stream class"},
		{"repeated class", "class 2fps\nclass 2fps\n", "repeated"},
		{"bad device", "device tpu\n", "unknown device"},
		{"negative duration", "duration -1\n", "duration"},
		{"batch without scheduler", "batch-max 8\n", "needs a scheduler"},
		{"slo without scheduler", "slo-ms 700\n", "needs a scheduler"},
		{"spill without kv", "spill spill(evict=lru)\n", "kv-capacity"},
		{"trace without arrivals", "trace at=0,class=2fps\n", "arrivals trace"},
		{"trace with streams", "streams 2\narrivals trace\ntrace at=0,class=2fps\n", "streams 0"},
		{"trace unknown class", "streams 0\narrivals trace\ntrace at=0,class=4fps\n", "not in the mix"},
		{"trace missing at", "streams 0\narrivals trace\ntrace class=2fps\n", "needs at="},
		{"burst without base", "class 2fps(burst-rate=1,burst-at=0,burst-dur=1)\n", "base arrival process"},
		{"burst partial", "arrivals poisson(rate=1)\nclass 2fps(burst-rate=1)\n", "burst"},
		{"no sessions", "streams 0\n", "no sessions"},
		{"rate flood", "duration 100\narrivals poisson(rate=1e9)\n", "sessions"},
		{"nan rate", "arrivals poisson(rate=nan)\n", "rate"},
		{"bad node list", "nodes warp:2\n", "unknown device"},
		{"router without nodes", "router least-loaded\n", "needs a node list"},
		{"autoscale without nodes", "autoscale queue\n", "needs a node list"},
		{"fault without nodes", "fault drain(node=0,at=5)\n", "need a node list"},
		{"rebalance without nodes", "rebalance-moves 2\n", "need a node list"},
		{"devices with nodes", "nodes vrex8:2\ndevices 2\n", "node list"},
		{"unknown router", "nodes vrex8:2\nrouter warp\n", "router"},
		{"unknown autoscaler", "nodes vrex8:2\nautoscale warp\n", "autoscale"},
		{"fault out of range", "nodes vrex8:2\nfault drain(node=3,at=5)\n", "node 3"},
		{"bad fault kind", "nodes vrex8:2\nfault crash(node=0,at=5)\n", "fault kind"},
		{"nan fault time", "nodes vrex8:1,vrex8:1\nfault drain(node=1,at=nan)\n", "parameter at: bad number"},
		{"nan fault recover", "nodes vrex8:1,vrex8:1\nfault drain(node=1,at=2,recover=nan)\n", "parameter recover: bad number"},
		{"initial without autoscale", "nodes vrex8:1,vrex8:1\ninitial-nodes 1\n", "autoscale"},
		{"initial out of range", "nodes vrex8:1,vrex8:1\nautoscale queue\ninitial-nodes 5\n", "out of range"},
		{"slack without moves", "nodes vrex8:2\nrebalance-slack 2\n", "rebalance-moves"},
		{"unknown degrader", "degrade warp\n", "unknown controller"},
		{"degrade typo param", "degrade pressure(low=0.1)\n", "low"},
		{"degrade nan threshold", "degrade pressure(lo=nan)\n", "lo"},
		{"degrade negative threshold", "degrade pressure(lo=-0.1)\n", "lo"},
		{"degrade inverted thresholds", "degrade pressure(lo=0.5,hi=0.2)\n", "inverted"},
		{"degrade static without budget", "degrade static\n", "budget is required"},
		{"degrade budget above one", "degrade static(budget=1.5)\n", "budget"},
		{"degrade bad step", "degrade hybrid(step=1.2)\n", "step"},
		{"degrade bad floor", "degrade deadline(floor=0)\n", "floor"},
		{"degrade negative slack", "degrade deadline(slack=-inf)\n", "slack"},
	} {
		if _, err := Parse(tc.name, []byte(tc.src)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestParseKVCapacity(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want float64
	}{
		{"", 0}, {"0", 0}, {"auto", serve.AutoCapacity}, {"8", 8e9}, {"0.5", 5e8},
	} {
		got, err := ParseKVCapacity(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseKVCapacity(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"-1", "x", "inf", "1e400"} {
		if _, err := ParseKVCapacity(bad); err == nil {
			t.Errorf("ParseKVCapacity(%q) must fail", bad)
		}
	}
}

// legacyConfig hand-builds the serve.Config the CLI flag surface always
// produced for a poisson/exp churn mix, bypassing the scenario layer.
func legacyConfig(t *testing.T) serve.Config {
	t.Helper()
	dev, _ := hwsim.DeviceByName("vrex8")
	pol, err := hwsim.ParsePolicy("resv")
	if err != nil {
		t.Fatal(err)
	}
	bal, err := serve.NewBalancer("round-robin")
	if err != nil {
		t.Fatal(err)
	}
	classes, err := serve.ParseMix("2fps:0.7,4fps:0.3")
	if err != nil {
		t.Fatal(err)
	}
	for i := range classes {
		classes[i].Priority = i
	}
	return serve.Config{
		Dev: dev, Pol: pol, Streams: 6, Duration: 12,
		Classes: classes, Devices: 2, Balancer: bal,
		Churn:         serve.ChurnConfig{ArrivalRate: 0.8, MeanLifetime: 5},
		DropThreshold: 4, Seed: 9,
	}
}

func poissonScenario() *Scenario {
	s := Default()
	s.Duration = 12
	s.Seed = 9
	s.Streams = 6
	s.Devices = 2
	s.Arrival = ArrivalSpec{Kind: "poisson", Rate: 0.8}
	s.Lifetime = LifetimeSpec{Kind: "exp", Mean: 5}
	s.Classes = []ClassSpec{
		{Name: "2fps", Weight: 0.7, Priority: -1},
		{Name: "4fps", Weight: 0.3, Priority: -1},
	}
	return s
}

// TestScenarioReducesToLegacyChurn is the tentpole invariant: the
// constant-rate Poisson / exponential / static-mix scenario compiles to nil
// hooks and reproduces the legacy flag-built run byte-identically, at every
// worker count.
func TestScenarioReducesToLegacyChurn(t *testing.T) {
	s := poissonScenario()
	cfg, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Churn.Arrivals != nil || cfg.Churn.Lifetime != nil || cfg.Churn.Class != nil {
		t.Fatal("poisson/exp scenario must compile to nil churn hooks")
	}
	if cfg.Churn.ArrivalRate != 0.8 || cfg.Churn.MeanLifetime != 5 {
		t.Fatalf("churn fields: %+v", cfg.Churn)
	}
	want := serve.Run(legacyConfig(t))
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		cfg, err := s.Config()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = workers
		if got := serve.Run(cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: scenario run differs from legacy flag-built run", workers)
		}
	}
}

func TestConfigResolvesFullSurface(t *testing.T) {
	s, err := Parse("full.vrex", []byte(full))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scheduler.Policy == nil || cfg.Scheduler.BatchMax != 8 || cfg.Scheduler.SLO != 0.7 {
		t.Fatalf("scheduler not compiled: %+v", cfg.Scheduler)
	}
	if cfg.KV.Capacity != 8e9 || cfg.KV.Spill.Name() != "spill(evict=lru,pages=4)" {
		t.Fatalf("kv plane not compiled: %+v", cfg.KV)
	}
	if cfg.Churn.Arrivals == nil || cfg.Churn.Class == nil || cfg.Churn.Lifetime == nil {
		t.Fatal("time-varying scenario must compile arrival, class and lifetime hooks")
	}
	if cfg.Degrade == nil || cfg.Degrade.Name() != "hybrid" || cfg.Degrade.Step != 0.8 {
		t.Fatalf("degrade plane not compiled: %+v", cfg.Degrade)
	}
	if cfg.Classes[0].SLO != 0.5 || cfg.Classes[0].Priority != 0 || cfg.Classes[1].Priority != 0 {
		t.Fatalf("class surface: %+v", cfg.Classes)
	}
}

func TestDiurnalArrivalsFollowTheRate(t *testing.T) {
	s := Default()
	s.Streams = 0
	s.Duration = 200
	s.Arrival = ArrivalSpec{Kind: "diurnal", Rate: 1, Amp: 1, Period: 200, Phase: 0}
	cc := s.churn()
	times := cc.Arrivals(mathx.NewRNG(42), s.Duration)
	if len(times) == 0 {
		t.Fatal("no arrivals")
	}
	// sin >= 0 on [0, 100): rate in [1, 2]; sin < 0 on (100, 200): clamped
	// toward 0. The first half-period must dominate.
	var hi, lo int
	for _, at := range times {
		if at < 100 {
			hi++
		} else {
			lo++
		}
	}
	if hi <= 3*lo {
		t.Fatalf("diurnal density not followed: %d arrivals in the peak half, %d in the trough", hi, lo)
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Fatal("arrival times must be strictly increasing")
		}
	}
}

func TestFlashCrowdDensity(t *testing.T) {
	s := Default()
	s.Streams = 0
	s.Duration = 100
	s.Arrival = ArrivalSpec{Kind: "flash", Rate: 0.5, At: 40, Dur: 20, Mult: 8}
	times := s.churn().Arrivals(mathx.NewRNG(7), s.Duration)
	var in, out int
	for _, at := range times {
		if at >= 40 && at < 60 {
			in++
		} else {
			out++
		}
	}
	// The window is 1/5 of the run at 8x the rate: expect ~2x the arrivals of
	// the remaining 4/5 combined.
	if in <= out {
		t.Fatalf("flash window not denser: %d inside vs %d outside", in, out)
	}
}

func TestHeavyTailLifetimes(t *testing.T) {
	s := Default()
	s.Lifetime = LifetimeSpec{Kind: "pareto", Shape: 1.2, Scale: 3}
	draw := s.churn().Lifetime
	rng := mathx.NewRNG(5)
	var over float64
	for i := 0; i < 4096; i++ {
		v := draw(rng, i, 0)
		if v < 3 {
			t.Fatalf("pareto draw %v below scale", v)
		}
		if v > 30 {
			over++
		}
	}
	// P(X > 10*scale) = 10^-1.2 ~ 6.3%: the tail must actually be heavy.
	if over == 0 {
		t.Fatal("pareto tail missing")
	}

	s.Lifetime = LifetimeSpec{Kind: "lognormal", Mu: 1, Sigma: 0.5}
	draw = s.churn().Lifetime
	for i := 0; i < 256; i++ {
		if v := draw(rng, i, 0); !(v > 0) || math.IsInf(v, 0) {
			t.Fatalf("lognormal draw %v", v)
		}
	}
}

func TestBurstTiltsClassMix(t *testing.T) {
	s := Default()
	s.Arrival = ArrivalSpec{Kind: "poisson", Rate: 0.5}
	s.Classes = []ClassSpec{
		{Name: "2fps", Weight: 1, Priority: -1},
		{Name: "4fps", Weight: 1, Priority: -1,
			Burst: &BurstSpec{Rate: 10, At: 10, Dur: 5}},
	}
	pick := s.churn().Class
	rng := mathx.NewRNG(3)
	count := func(at float64) int {
		n := 0
		for i := 0; i < 2000; i++ {
			if pick(rng, i, at) == 1 {
				n++
			}
		}
		return n
	}
	outside, inside := count(5), count(12)
	// Outside the burst the mix is 50/50; inside, class 1 holds 10.25/10.5 of
	// the instantaneous rate.
	if outside < 800 || outside > 1200 {
		t.Fatalf("static mix off: %d/2000 picked the bursting class outside the window", outside)
	}
	if inside < 1800 {
		t.Fatalf("burst must dominate the mix inside the window: %d/2000", inside)
	}
}

// TestRecordReplayReproducesRun closes the loop: record a stochastic churn
// run, compile the recording into a trace-replay scenario, and the replay
// reproduces the original run's results exactly (arrival ordinals keep their
// derived seeds, so even per-frame jitter matches).
func TestRecordReplayReproducesRun(t *testing.T) {
	base := Default()
	base.Name = "rec"
	base.Streams = 0
	base.Duration = 15
	base.Seed = 3
	base.Arrival = ArrivalSpec{Kind: "poisson", Rate: 1.5}
	base.Lifetime = LifetimeSpec{Kind: "exp", Mean: 6}
	base.Classes = []ClassSpec{
		{Name: "2fps", Weight: 0.6, Priority: -1},
		{Name: "4fps", Weight: 0.4, Priority: -1},
	}
	cfg, err := base.Config()
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	cfg.Observer = rec
	want := serve.Run(cfg)

	replay := rec.Scenario(base)
	if replay.Name != "rec-replay" || replay.Arrival.Kind != "trace" {
		t.Fatalf("replay scenario: %+v", replay)
	}
	if _, err := Parse("replay", replay.Marshal()); err != nil {
		t.Fatalf("recorded scenario must marshal to a parseable file: %v", err)
	}
	cfg2, err := replay.Config()
	if err != nil {
		t.Fatal(err)
	}
	if got := serve.Run(cfg2); !reflect.DeepEqual(got, want) {
		t.Fatal("trace replay did not reproduce the recorded run")
	}
}

func TestAdversarySearchDeterministicAndMonotone(t *testing.T) {
	base := Default()
	base.Name = "adv-base"
	base.Duration = 10
	base.Streams = 2
	base.Scheduler = "edf"
	base.Arrival = ArrivalSpec{Kind: "poisson", Rate: 0.6}
	base.Lifetime = LifetimeSpec{Kind: "exp", Mean: 5}
	opt := SearchOptions{Rounds: 5, Seed: 17, Workers: 1}
	r1, err := Search(base, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Search(base, opt)
	if err != nil {
		t.Fatal(err)
	}
	if string(r1.Scenario.Marshal()) != string(r2.Scenario.Marshal()) || r1.Score != r2.Score {
		t.Fatal("search must be deterministic for a fixed seed")
	}
	if r1.Score < r1.BaseScore {
		t.Fatalf("hill climb went downhill: %v < %v", r1.Score, r1.BaseScore)
	}
	if r1.Scenario.Name != "adv-base-adv" {
		t.Fatalf("winner name %q", r1.Scenario.Name)
	}
	if err := r1.Scenario.Validate(); err != nil {
		t.Fatalf("winner must stay valid: %v", err)
	}
	if _, err := Search(Default(), opt); err == nil {
		t.Fatal("search without an arrival process must fail")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := poissonScenario()
	s.Classes[1].Burst = &BurstSpec{Rate: 1, At: 0, Dur: 1}
	c := s.Clone()
	c.Classes[1].Burst.Rate = 99
	c.Classes[0].Weight = 99
	if s.Classes[1].Burst.Rate == 99 || s.Classes[0].Weight == 99 {
		t.Fatal("Clone must not share class or burst storage")
	}
	s.Faults = []cluster.Fault{{Kind: cluster.FaultDrain, Node: 0, At: 5}}
	c = s.Clone()
	c.Faults[0].At = 99
	if s.Faults[0].At == 99 {
		t.Fatal("Clone must not share fault storage")
	}
}

// clusterSrc exercises every cluster key: heterogeneous nodes with regions
// (canonicalized from loose input spacing / implicit device counts), a
// parameterized router and autoscaler, rebalancing, and repeated fault lines.
const clusterSrc = `scenario geo
duration 30
streams 6
nodes vrex8:2@us, a100@us ,agx:3@edge
router kv-headroom
autoscale queue(hi=2,lo=0.2)
initial-nodes 2
rebalance-moves 4
rebalance-slack 1.5
fault drain(node=1,at=10,recover=20)
fault fail(node=2,at=15)
arrivals poisson(rate=0.4)
lifetime exp(mean=12)
`

func TestClusterScenarioRoundTrip(t *testing.T) {
	s, err := Parse("geo.vrex", []byte(clusterSrc))
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsCluster() {
		t.Fatal("nodes line must make the scenario a cluster scenario")
	}
	if want := "vrex8:2@us,a100:1@us,agx:3@edge"; s.Nodes != want {
		t.Fatalf("nodes not canonicalized: %q, want %q", s.Nodes, want)
	}
	if len(s.Faults) != 2 || s.Faults[0].Kind != cluster.FaultDrain || s.Faults[1].Node != 2 {
		t.Fatalf("fault lines lost: %+v", s.Faults)
	}
	m1 := s.Marshal()
	s2, err := Parse("marshal", m1)
	if err != nil {
		t.Fatalf("Marshal output must re-parse: %v\n%s", err, m1)
	}
	if !reflect.DeepEqual(s, s2) {
		t.Fatalf("Parse(Marshal(s)) != s:\n%+v\n%+v", s, s2)
	}
	if m2 := s2.Marshal(); string(m1) != string(m2) {
		t.Fatalf("Marshal is not a fixed point:\n%s\n%s", m1, m2)
	}
}

func TestClusterConfigCompiles(t *testing.T) {
	s, err := Parse("geo.vrex", []byte(clusterSrc))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.ClusterConfig()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Nodes) != 3 || cfg.Nodes[0].Devices != 2 || cfg.Nodes[2].Region != "edge" {
		t.Fatalf("node list: %+v", cfg.Nodes)
	}
	if cfg.Router == nil || cfg.Router.Name() != "kv-headroom" {
		t.Fatalf("router: %+v", cfg.Router)
	}
	if cfg.Autoscaler == nil || cfg.Autoscaler.Name() != "queue" || cfg.InitialNodes != 2 {
		t.Fatalf("autoscaler: %+v initial %d", cfg.Autoscaler, cfg.InitialNodes)
	}
	if cfg.Rebalance.MaxMoves != 4 || cfg.Rebalance.Slack != 1.5 || len(cfg.Faults) != 2 {
		t.Fatalf("rebalance %+v faults %+v", cfg.Rebalance, cfg.Faults)
	}
	if cfg.NodeBalancer == nil || cfg.NodeBalancer() == nil {
		t.Fatal("node balancer factory must build")
	}
	if cfg.Base.Streams != 6 || cfg.Base.Duration != 30 {
		t.Fatalf("base config lost workload fields: %+v", cfg.Base)
	}
	// The run itself must be live: both the drain and the failure fire.
	res := cluster.Run(cfg)
	if res.Serve.Aggregate.Sessions == 0 {
		t.Fatal("cluster run served nothing")
	}
	if res.Serve.Migrations.Live == 0 {
		t.Fatal("drain fault must live-migrate sessions")
	}
	// A plain scenario refuses to compile as a cluster.
	if _, err := Default().ClusterConfig(); err == nil {
		t.Fatal("ClusterConfig on a non-cluster scenario must error")
	}
}
