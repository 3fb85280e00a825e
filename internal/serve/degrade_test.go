package serve

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"vrex/internal/degrade"
	"vrex/internal/hwsim"
)

// degradeConfig builds a DegradeConfig around a policyspec string, failing
// the test on parse errors.
func degradeConfig(t *testing.T, spec string) DegradeConfig {
	t.Helper()
	p, err := degrade.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		return DegradeConfig{}
	}
	return DegradeConfig{Policy: p.Controller, Step: p.Step, Floor: p.Floor}
}

// pulseCtl is a deterministic test controller: each session's first `down`
// decisions demand the floor, everything after demands full budget — so a run
// exercises both degradation and restoration without depending on pressure.
type pulseCtl struct {
	down  int
	calls map[int]int
}

func (c *pulseCtl) Name() string { return "pulse" }

func (c *pulseCtl) Target(sig degrade.Signals) float64 {
	c.calls[sig.Session]++
	if c.calls[sig.Session] <= c.down {
		return 0
	}
	return 1
}

// stripDegrade zeroes the degradation-plane-only fields so an enabled-but-
// never-firing run can be compared against a disabled one.
func stripDegrade(res Result) Result {
	for s := range res.PerStream {
		res.PerStream[s].MeanBudget = 0
		res.PerStream[s].AccuracyProxy = 0
	}
	for c := range res.PerClass {
		res.PerClass[c].MeanBudget = 0
		res.PerClass[c].AccuracyProxy = 0
	}
	res.Aggregate.MeanBudget = 0
	res.Aggregate.AccuracyProxy = 0
	return res
}

// TestDegradeNeverFiringMatchesDisabled pins the reduction property beyond
// the golden tests: a plane whose controller always demands full budget
// (static(budget=1)) changes no serving metric — it only reports MeanBudget
// and AccuracyProxy at 1.
func TestDegradeNeverFiringMatchesDisabled(t *testing.T) {
	base := mixConfig(8, 2)
	enabled := base
	enabled.Degrade = degradeConfig(t, "static(budget=1)")
	a, b := Run(base), Run(enabled)
	for s := range b.PerStream {
		m := b.PerStream[s]
		if m.Degradations != 0 || m.Restorations != 0 {
			t.Fatalf("session %d took budget steps at full-budget target: %+v", s, m)
		}
		if m.FramesServed+m.QueriesServed > 0 && (m.MeanBudget != 1 || m.AccuracyProxy != 1) {
			t.Fatalf("session %d budget accounting at full budget: %+v", s, m)
		}
	}
	if b.Aggregate.MeanBudget != 1 || b.Aggregate.AccuracyProxy != 1 {
		t.Fatalf("aggregate budget accounting at full budget: %+v", b.Aggregate)
	}
	if !reflect.DeepEqual(a, stripDegrade(b)) {
		t.Fatalf("never-firing plane changed serving metrics:\n%+v\n%+v", a, stripDegrade(b))
	}
	// And the disabled plane reports all-zero degradation metrics.
	if a.Aggregate.MeanBudget != 0 || a.Aggregate.Degradations != 0 {
		t.Fatalf("disabled plane leaked degradation metrics: %+v", a.Aggregate)
	}
}

// TestDegradeStaticBounded pins the quantized convergence: a static target of
// 0.5 walks every session down in Step-sized increments to the first level at
// or below the target and holds — budgets stay within [target-ish, 1], no
// restorations, no oscillation.
func TestDegradeStaticBounded(t *testing.T) {
	cfg := mixConfig(6, 1)
	cfg.Degrade = degradeConfig(t, "static(budget=0.5)")
	res := Run(cfg)
	if res.Aggregate.Degradations == 0 {
		t.Fatal("static(budget=0.5) never degraded")
	}
	if res.Aggregate.Restorations != 0 {
		t.Fatalf("static target restored %d times (oscillation)", res.Aggregate.Restorations)
	}
	for s, m := range res.PerStream {
		if m.FramesServed+m.QueriesServed == 0 {
			continue
		}
		if m.MeanBudget <= 0 || m.MeanBudget > 1 {
			t.Fatalf("session %d mean budget %v out of (0, 1]", s, m.MeanBudget)
		}
		if m.AccuracyProxy <= 0 || m.AccuracyProxy > 1 {
			t.Fatalf("session %d accuracy proxy %v out of (0, 1]", s, m.AccuracyProxy)
		}
		// Settled budget is 0.49 (= 0.7^2, the first level <= 0.5); with the
		// default floor no session can sit below it.
		if m.MeanBudget < 0.49-1e-9 {
			t.Fatalf("session %d mean budget %v below the settled level", s, m.MeanBudget)
		}
	}
}

// TestDegradePulseRestores drives both directions deterministically: sessions
// degrade toward the floor for their first decisions, then restore all the
// way back to full budget, and the counters balance.
func TestDegradePulseRestores(t *testing.T) {
	cfg := mixConfig(4, 1)
	cfg.Degrade = DegradeConfig{Policy: &pulseCtl{down: 6, calls: map[int]int{}}}
	res := Run(cfg)
	if res.Aggregate.Degradations == 0 || res.Aggregate.Restorations == 0 {
		t.Fatalf("pulse controller: degradations=%d restorations=%d",
			res.Aggregate.Degradations, res.Aggregate.Restorations)
	}
	// Every degradation is eventually undone (the pulse ends long before the
	// run does), so the per-session step counts match and the device ends
	// with no degraded residents.
	for s, m := range res.PerStream {
		if m.Degradations != m.Restorations {
			t.Fatalf("session %d: %d degradations vs %d restorations",
				s, m.Degradations, m.Restorations)
		}
	}
	dm := res.PerDevice[0]
	if dm.Degradations != res.Aggregate.Degradations || dm.Restorations != res.Aggregate.Restorations {
		t.Fatalf("device counters %d/%d, aggregate %d/%d",
			dm.Degradations, dm.Restorations,
			res.Aggregate.Degradations, res.Aggregate.Restorations)
	}
	// Degraded sessions served cheaper steps at a real accuracy cost.
	if res.Aggregate.MeanBudget >= 1 || res.Aggregate.AccuracyProxy >= 1 {
		t.Fatalf("pulse left no budget trace: %+v", res.Aggregate)
	}
}

// TestDegradePressureFiresUnderTightPool puts the pressure controller on a
// pool small enough to page constantly: sessions must degrade, and the
// degraded run must not be slower than the undegraded one on the same
// scenario (the whole point of shedding retrieval work under pressure).
func TestDegradePressureFiresUnderTightPool(t *testing.T) {
	base := kvConfig(8, 1, 95*pageBytes250, "spill(evict=lru,pages=4)")
	degraded := base
	degraded.Degrade = degradeConfig(t, "pressure(lo=0.2,hi=0.5)")
	a, b := Run(base), Run(degraded)
	if b.Aggregate.Degradations == 0 {
		t.Fatal("pressure controller never fired on a thrashing pool")
	}
	if b.Aggregate.MeanBudget >= 1 {
		t.Fatalf("degradations without budget reduction: %+v", b.Aggregate)
	}
	if b.Aggregate.MeanBudget < degrade.DefaultFloor {
		t.Fatalf("mean budget %v below floor %v", b.Aggregate.MeanBudget, degrade.DefaultFloor)
	}
	if b.Aggregate.P99 > a.Aggregate.P99+1e-9 {
		t.Fatalf("degraded P99 %v worse than undegraded %v", b.Aggregate.P99, a.Aggregate.P99)
	}
}

// TestDegradeWorkerInvariance pins determinism: the enabled plane's decisions
// live on the single-threaded device loop, so results are byte-identical for
// any worker count — under the zero scheduler and batched edf alike.
func TestDegradeWorkerInvariance(t *testing.T) {
	for _, sched := range []string{"", "edf"} {
		cfg := kvConfig(8, 2, 120*pageBytes250, "spill(evict=lru,pages=4)")
		cfg.Degrade = degradeConfig(t, "hybrid")
		if sched != "" {
			pol, err := ParseScheduler(sched)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Scheduler = SchedulerConfig{Policy: pol, BatchMax: 8}
		}
		cfg.Workers = 1
		seq := Run(cfg)
		for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
			c := cfg
			c.Workers = w
			if par := Run(c); !reflect.DeepEqual(seq, par) {
				t.Fatalf("sched=%q: workers=%d diverged from workers=1", sched, w)
			}
		}
	}
}

// TestDegradeObserverEvents checks the budget-transition event stream:
// degraded/restored events carry the budget scales around each step, and
// every step moves the budget by exactly one quantized level.
func TestDegradeObserverEvents(t *testing.T) {
	cfg := mixConfig(4, 1)
	cfg.Degrade = DegradeConfig{Policy: &pulseCtl{down: 3, calls: map[int]int{}}}
	var events []Event
	cfg.Observer = ObserverFunc(func(ev Event) {
		if ev.Kind == EventDegraded || ev.Kind == EventRestored {
			events = append(events, ev)
		}
	})
	res := Run(cfg)
	if want := res.Aggregate.Degradations + res.Aggregate.Restorations; len(events) != want {
		t.Fatalf("observed %d budget events, counters say %d", len(events), want)
	}
	for _, ev := range events {
		down := ev.Kind == EventDegraded
		if down && ev.BudgetAfter >= ev.BudgetBefore {
			t.Fatalf("degraded event did not shrink the budget: %+v", ev)
		}
		if !down && ev.BudgetAfter <= ev.BudgetBefore {
			t.Fatalf("restored event did not grow the budget: %+v", ev)
		}
		if ev.BudgetAfter <= 0 || ev.BudgetAfter > 1 || ev.BudgetBefore <= 0 || ev.BudgetBefore > 1 {
			t.Fatalf("budget scales out of (0, 1]: %+v", ev)
		}
	}
}

// TestDegradeValidateRejects pins the config-level guards for out-of-range
// Step / Floor on an enabled plane.
func TestDegradeValidateRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"step>=1", func(c *Config) { c.Degrade.Step = 1 }, "degrade step"},
		{"negative step", func(c *Config) { c.Degrade.Step = -0.5 }, "degrade step"},
		{"floor>1", func(c *Config) { c.Degrade.Floor = 1.5 }, "degrade floor"},
		{"negative floor", func(c *Config) { c.Degrade.Floor = -0.1 }, "degrade floor"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := mixConfig(2, 1)
			cfg.Degrade = degradeConfig(t, "pressure")
			tc.mut(&cfg)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("validate accepted an invalid degrade config")
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %v does not mention %q", r, tc.want)
				}
			}()
			Run(cfg)
		})
	}
	// The same values are fine on a disabled plane (zero Policy ignores them
	// is NOT allowed — but a fully zero config must pass).
	cfg := mixConfig(2, 1)
	cfg.Degrade = DegradeConfig{}
	Run(cfg)
}

// mixConfig / kvConfig / pageBytes250 come from scenario_test.go and
// pressure_test.go; hwsim is imported there too, keep the linter happy here.
var _ = hwsim.VRex8
