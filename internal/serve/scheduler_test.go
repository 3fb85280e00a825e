package serve

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"vrex/internal/hwsim"
	"vrex/internal/mathx"
)

func mustScheduler(t testing.TB, spec string) Scheduler {
	t.Helper()
	s, err := ParseScheduler(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseScheduler(t *testing.T) {
	for _, name := range []string{"fifo", "edf", "priority"} {
		s, err := ParseScheduler(name)
		if err != nil || s == nil || s.Name() != name {
			t.Fatalf("ParseScheduler(%q) = %v, %v", name, s, err)
		}
	}
	for _, none := range []string{"", "none", " NONE "} {
		s, err := ParseScheduler(none)
		if err != nil || s != nil {
			t.Fatalf("ParseScheduler(%q) should disable the plane, got %v, %v", none, s, err)
		}
	}
	for _, bad := range []string{"nosuch", "fifo(bogus=1)", "edf(slack=abc"} {
		if _, err := ParseScheduler(bad); err == nil {
			t.Errorf("ParseScheduler(%q) should fail", bad)
		}
	}
	found := map[string]bool{}
	for _, n := range SchedulerNames() {
		found[n] = true
	}
	if !found["fifo"] || !found["edf"] || !found["priority"] {
		t.Fatalf("registry incomplete: %v", SchedulerNames())
	}
}

// TestZeroSchedulerIsBatch1Fifo pins the zero SchedulerConfig's meaning: a
// nil policy is fifo with a batch cap of 1, whatever BatchMax says.
// Underloaded fleets with queries, an overloaded single device with drops,
// and the KV memory-pressure plane with active spilling must match bit for
// bit — resident-KV peaks included — across worker counts 1, 4 and
// GOMAXPROCS (mirroring pressure_test.go).
func TestZeroSchedulerIsBatch1Fifo(t *testing.T) {
	scenarios := map[string]Config{}

	under := mixConfig(6, 2)
	for i := range under.Classes {
		under.Classes[i].Stream.QueryEvery = 8
	}
	scenarios["underloaded fleet + queries"] = under

	over := baseConfig(hwsim.VRex8(), hwsim.ReSVModel(), 10)
	over.Classes[0].Stream.StartKV = 20000
	over.Classes[0].Stream.QueryEvery = 9
	scenarios["overloaded device + drops"] = over

	spill := kvConfig(2, 1, 30*pageBytes250, "spill(evict=lru,pages=4)")
	scenarios["kv plane + spilling"] = spill

	for name, cfg := range scenarios {
		t.Run(name, func(t *testing.T) {
			for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				zero := cfg
				zero.Workers = w
				fifo := zero
				fifo.Scheduler = SchedulerConfig{Policy: mustScheduler(t, "fifo"), BatchMax: 1}
				ignored := zero
				ignored.Scheduler.BatchMax = 8
				a, b, c := Run(zero), Run(fifo), Run(ignored)
				if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, c) {
					t.Fatalf("workers=%d: zero scheduler diverged from batch-1 fifo:\nzero %+v\nfifo %+v\nbatch-max 8 %+v",
						w, a.Aggregate, b.Aggregate, c.Aggregate)
				}
				if a.Aggregate.FramesServed == 0 {
					t.Fatal("scenario served nothing")
				}
			}
		})
	}
}

// TestSchedulerParallelEquivalence extends the worker-count guarantee to a
// batched, deadline-ordered run under churn and memory pressure.
func TestSchedulerParallelEquivalence(t *testing.T) {
	cfg := kvConfig(6, 3, 40*pageBytes250, "spill(evict=lru,pages=8)")
	cfg.Churn = ChurnConfig{ArrivalRate: 0.4, MeanLifetime: 8}
	cfg.Scheduler = SchedulerConfig{Policy: mustScheduler(t, "edf"), BatchMax: 4, SLO: 1}
	cfg.Workers = 1
	seq := Run(cfg)
	if seq.Aggregate.FramesServed == 0 {
		t.Fatal("scenario must serve frames")
	}
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		c := cfg
		c.Workers = w
		if par := Run(c); !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d diverged from sequential under the scheduler plane", w)
		}
	}
}

// TestBatchingImprovesThroughputAtHighLoad pins the acceptance criterion:
// on a saturated device, raising the batch cap strictly raises aggregate
// served frames (the per-step weight read amortises across the batch).
func TestBatchingImprovesThroughputAtHighLoad(t *testing.T) {
	mk := func(batch int) Config {
		cfg := baseConfig(hwsim.VRex8(), hwsim.ReSVModel(), 10)
		cfg.Classes[0].Stream.StartKV = 20000
		cfg.Scheduler = SchedulerConfig{Policy: mustScheduler(t, "fifo"), BatchMax: batch}
		return cfg
	}
	one := Run(mk(1))
	if one.RealTime {
		t.Fatal("scenario must be overloaded")
	}
	prev := one.Aggregate.FramesServed
	for _, batch := range []int{4, 8} {
		res := Run(mk(batch))
		if res.Aggregate.FramesServed <= prev {
			t.Fatalf("batch %d served %d frames, not above %d", batch, res.Aggregate.FramesServed, prev)
		}
		if res.PerDevice[0].Batches >= res.Aggregate.FramesServed {
			t.Fatalf("batch %d never coalesced: %d steps for %d frames",
				batch, res.PerDevice[0].Batches, res.Aggregate.FramesServed)
		}
		prev = res.Aggregate.FramesServed
	}
}

// TestEDFMonotoneAttainment: under edf with a uniform SLO, tightening the
// SLO never increases attainment (with one class, edf's deadline order
// degenerates to arrival order, so the schedule is invariant and only the
// deadline test moves).
func TestEDFMonotoneAttainment(t *testing.T) {
	prev := math.Inf(1)
	for _, slo := range []float64{2, 1, 0.5, 0.25} {
		cfg := baseConfig(hwsim.VRex8(), hwsim.ReSVModel(), 8)
		cfg.Classes[0].Stream.StartKV = 20000
		cfg.Scheduler = SchedulerConfig{Policy: mustScheduler(t, "edf"), BatchMax: 4, SLO: slo}
		res := Run(cfg)
		if res.Aggregate.SLOAttained > prev {
			t.Fatalf("tightening SLO to %v raised attainment to %v (was %v)",
				slo, res.Aggregate.SLOAttained, prev)
		}
		prev = res.Aggregate.SLOAttained
	}
}

// schedMixConfig is an overloaded two-class scenario: a tight-deadline
// interactive class against a loose background class.
func schedMixConfig(t *testing.T, policy string, batch, streams int) Config {
	sc := DefaultStreamConfig()
	sc.QueryEvery = 0
	sc.StartKV = 20000
	return Config{
		Dev: hwsim.VRex8(), Pol: hwsim.ReSVModel(),
		Streams: streams, Duration: 20,
		Classes: []StreamClass{
			{Name: "interactive", Weight: 0.3, Stream: sc, SLO: 0.6, Priority: 0},
			{Name: "background", Weight: 0.7, Stream: sc, SLO: 2, Priority: 1},
		},
		DropThreshold: 4, Seed: 7,
		Scheduler: SchedulerConfig{Policy: mustScheduler(t, policy), BatchMax: batch},
	}
}

// TestPriorityProtectsTightClass: under overload, the priority scheduler
// keeps the interactive class's attainment above both its own background
// class and fifo's interactive attainment.
func TestPriorityProtectsTightClass(t *testing.T) {
	byClass := func(res Result, name string) ClassMetrics {
		for _, cm := range res.PerClass {
			if cm.Class == name {
				return cm
			}
		}
		t.Fatalf("class %q missing", name)
		return ClassMetrics{}
	}
	prio := Run(schedMixConfig(t, "priority", 1, 8))
	fifo := Run(schedMixConfig(t, "fifo", 1, 8))
	pi, pb := byClass(prio, "interactive"), byClass(prio, "background")
	fi := byClass(fifo, "interactive")
	if pi.SLOAttained <= pb.SLOAttained {
		t.Fatalf("priority failed to protect interactive: %v vs background %v",
			pi.SLOAttained, pb.SLOAttained)
	}
	if pi.SLOAttained <= fi.SLOAttained {
		t.Fatalf("priority interactive %v not above fifo %v", pi.SLOAttained, fi.SLOAttained)
	}
	if pi.QueueP99 >= pb.QueueP99 {
		t.Fatalf("interactive queue wait %v should undercut background %v", pi.QueueP99, pb.QueueP99)
	}
}

// TestBatchObserverConsistent: batch-formed events account for every
// hardware step and every served item, and deadline-missed events match the
// metric.
func TestBatchObserverConsistent(t *testing.T) {
	cfg := schedMixConfig(t, "edf", 4, 8)
	batches, members, misses := 0, 0, 0
	cfg.Observer = ObserverFunc(func(e Event) {
		switch e.Kind {
		case EventBatchFormed:
			if e.Batch < 1 || e.Batch > 4 {
				t.Fatalf("batch size %d outside [1, cap]", e.Batch)
			}
			if math.IsNaN(e.Latency) || e.Latency <= 0 {
				t.Fatalf("batch-formed needs a positive service time, got %v", e.Latency)
			}
			batches++
			members += e.Batch
		case EventDeadlineMissed:
			if math.IsNaN(e.Latency) {
				t.Fatal("deadline-missed must carry the completion latency")
			}
			misses++
		default:
			if e.Batch != 0 {
				t.Fatalf("%v event carries batch size %d", e.Kind, e.Batch)
			}
		}
	})
	res := Run(cfg)
	steps := 0
	for _, dm := range res.PerDevice {
		steps += dm.Batches
	}
	if batches != steps {
		t.Fatalf("batch events %d != device steps %d", batches, steps)
	}
	if want := res.Aggregate.FramesServed + res.Aggregate.QueriesServed; members != want {
		t.Fatalf("batch members %d != served items %d", members, want)
	}
	if misses != res.Aggregate.DeadlineMisses || misses == 0 {
		t.Fatalf("deadline events %d != metric %d (want nonzero)", misses, res.Aggregate.DeadlineMisses)
	}
}

// TestDroppedEventLatencyIsNaN pins the Observer sentinel contract: events
// that carry no completion latency report NaN, never a fake zero sample;
// batch-formed events, which every step emits, carry its service time.
func TestDroppedEventLatencyIsNaN(t *testing.T) {
	cfg := baseConfig(hwsim.AGXOrin(), hwsim.FlexGenModel(), 4)
	cfg.Classes[0].Stream.StartKV = 20000
	drops, serves, steps := 0, 0, 0
	cfg.Observer = ObserverFunc(func(e Event) {
		switch e.Kind {
		case EventFrameServed, EventQueryServed, EventDeadlineMissed:
			if math.IsNaN(e.Latency) || e.Latency <= 0 {
				t.Fatalf("served event latency %v", e.Latency)
			}
			serves++
		case EventBatchFormed:
			// Every step reports its service time and member count.
			if !(e.Latency > 0) || math.IsInf(e.Latency, 0) || e.Batch < 1 {
				t.Fatalf("batch-formed event latency %v batch %d, want finite positive and >= 1", e.Latency, e.Batch)
			}
			steps++
		default:
			if !math.IsNaN(e.Latency) {
				t.Fatalf("%v event latency %v, want NaN sentinel", e.Kind, e.Latency)
			}
			if e.Kind == EventFrameDropped {
				drops++
			}
		}
	})
	Run(cfg)
	if drops == 0 || serves == 0 || steps == 0 {
		t.Fatalf("scenario must drop, serve and step: drops=%d serves=%d steps=%d", drops, serves, steps)
	}
}

// TestSerialSLOAccounting: the SLO/queue metrics hold on the zero
// scheduler's batch-1 timeline (one hardware step per served item), so
// scheduler sweeps have an apples-to-apples batch-1 reference.
func TestSerialSLOAccounting(t *testing.T) {
	cfg := baseConfig(hwsim.VRex8(), hwsim.ReSVModel(), 2)
	cfg.Classes[0].Stream.QueryEvery = 7
	res := Run(cfg)
	agg := res.Aggregate
	if agg.SLOAttained < 0 || agg.SLOAttained > 1 {
		t.Fatalf("SLOAttained %v outside [0,1]", agg.SLOAttained)
	}
	wantGoodput := float64(agg.FramesServed-agg.DeadlineMisses) / cfg.Duration
	if agg.Goodput != wantGoodput {
		t.Fatalf("goodput %v, want %v", agg.Goodput, wantGoodput)
	}
	if agg.QueueP99 < agg.QueueP50 || agg.QueueP50 < 0 {
		t.Fatalf("queue percentiles inconsistent: p50=%v p99=%v", agg.QueueP50, agg.QueueP99)
	}
	dm := res.PerDevice[0]
	if dm.Batches != agg.FramesServed+agg.QueriesServed {
		t.Fatalf("batch-1 timeline: %d steps for %d served items", dm.Batches, agg.FramesServed+agg.QueriesServed)
	}
	if dm.MeanQueueWait < 0 {
		t.Fatalf("negative mean queue wait %v", dm.MeanQueueWait)
	}
	misses := 0
	for _, m := range res.PerStream {
		misses += m.DeadlineMisses
	}
	if misses != agg.DeadlineMisses {
		t.Fatalf("per-stream misses %d != aggregate %d", misses, agg.DeadlineMisses)
	}
}

// TestSchedulerValidation: malformed scheduler and class fields fail loudly.
func TestSchedulerValidation(t *testing.T) {
	fifo := mustScheduler(t, "fifo")
	for name, mutate := range map[string]func(*Config){
		"negative batch cap": func(c *Config) {
			c.Scheduler = SchedulerConfig{Policy: fifo, BatchMax: -1}
		},
		"negative scheduler slo": func(c *Config) {
			c.Scheduler = SchedulerConfig{Policy: fifo, SLO: -0.5}
		},
		"no classes":         func(c *Config) { c.Classes = nil },
		"negative class slo": func(c *Config) { c.Classes[0].SLO = -1 },
		"zero fps":           func(c *Config) { c.Classes[0].Stream.FPS = 0 },
		"negative fps":       func(c *Config) { c.Classes[0].Stream.FPS = -2 },
		"nan fps":            func(c *Config) { c.Classes[0].Stream.FPS = math.NaN() },
		"inf fps":            func(c *Config) { c.Classes[0].Stream.FPS = math.Inf(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s must panic", name)
				}
			}()
			cfg := mixConfig(2, 1)
			mutate(&cfg)
			Run(cfg)
		}()
	}
}

// TestExpDrawNeverZero pins the churn-sampling regression: the exponential
// inverse CDF is clamped strictly away from zero, so a uniform draw of
// exactly 0 can no longer produce zero-gap arrivals or zero-length
// lifetimes, while ordinary draws are untouched.
func TestExpDrawNeverZero(t *testing.T) {
	if d := mathx.ExpFromUniform(0, 5); d <= 0 {
		t.Fatalf("zero draw yields non-positive gap %v", d)
	}
	for _, u := range []float64{1e-300, 1e-17, 0.25, 0.5, 0.999999} {
		d := mathx.ExpFromUniform(u, 5)
		if d <= 0 {
			t.Fatalf("u=%v: non-positive gap %v", u, d)
		}
		if want := -5 * math.Log(1-u); d != want && want > 0 {
			t.Fatalf("u=%v: clamp perturbed an ordinary draw: %v != %v", u, d, want)
		}
	}
}

// TestBuiltinKeysNonDecreasingWithinClass pins the property that keeps the
// ready queue's push O(1): every built-in policy keys one class's items, in
// arrival order, with keys that never decrease, so each push lands at its
// lane's tail. A policy without it is still ordered exactly, but each
// out-of-order push shifts past its lane's later items. Arrivals include
// ties and times so large that Arrival+SLO rounds.
func TestBuiltinKeysNonDecreasingWithinClass(t *testing.T) {
	rng := mathx.NewRNG(5)
	const slo, priority = 0.7, 3
	steps := []float64{0, 0, 1e-9, 0.25, 1.0 / 3, 1, 2}
	for _, name := range []string{"fifo", "edf", "priority"} {
		sched := mustScheduler(t, name)
		for _, start := range []float64{0, 1e6, 1 << 52, 1 << 53, 1e17} {
			prev, at := math.Inf(-1), start
			for i := 0; i < 500; i++ {
				at += steps[rng.Intn(len(steps))]
				k := sched.Key(WorkItem{
					Session: rng.Intn(8), Class: 1, Priority: priority, Query: rng.Intn(4) == 0,
					Arrival: at, Deadline: at + slo,
				})
				if k < prev {
					t.Fatalf("%s from %g: key %v after %v at arrival %v", name, start, k, prev, at)
				}
				prev = k
			}
		}
	}
}
