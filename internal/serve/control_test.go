package serve

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"vrex/internal/hwsim"
)

// controlConfig is baseConfig plus a 2-device fleet, ready for a controller.
func controlConfig(streams int) Config {
	cfg := baseConfig(hwsim.VRex8(), hwsim.ReSVModel(), streams)
	// 1 FPS: one VRex8 sustains ~5.8 frames/s, so a whole drained fleet can
	// consolidate onto one device without overload.
	cfg.Classes[0].Stream.FPS = 1
	cfg.Devices = 2
	return cfg
}

func TestControlDisabledReducesExactly(t *testing.T) {
	// A controller with no tick schedule (or a schedule with no controller)
	// must not perturb the timeline at all.
	base := Run(controlConfig(4))
	withTicks := controlConfig(4)
	withTicks.Control.At = []float64{5, 10} // Controller nil: plane disabled
	if !reflect.DeepEqual(base, Run(withTicks)) {
		t.Fatal("tick times without a controller must change nothing")
	}
	noTimes := controlConfig(4)
	noTimes.Control.Controller = func(float64, *FleetOps) { t.Fatal("must not tick") }
	if !reflect.DeepEqual(base, Run(noTimes)) {
		t.Fatal("a controller with no tick schedule must change nothing")
	}
}

func TestControlNoopControllerIsInvisible(t *testing.T) {
	// A controller that ticks but does nothing must reduce byte-identically,
	// under both the zero scheduler (batch-1 fifo) and batched edf.
	for _, sched := range []string{"", "edf"} {
		base := controlConfig(4)
		ticked := controlConfig(4)
		ticked.Control.Interval = 1
		ticks := 0
		ticked.Control.Controller = func(now float64, ops *FleetOps) { ticks++ }
		if sched != "" {
			p, err := ParseScheduler(sched)
			if err != nil {
				t.Fatal(err)
			}
			base.Scheduler.Policy = p
			ticked.Scheduler.Policy = p
		}
		if !reflect.DeepEqual(Run(base), Run(ticked)) {
			t.Fatalf("sched=%q: no-op controller must be invisible", sched)
		}
		if want := int(ticked.Duration) - 1; ticks != want {
			t.Fatalf("sched=%q: %d ticks, want %d", sched, ticks, want)
		}
	}
}

func TestDrainMigratesSessionsLive(t *testing.T) {
	cfg := controlConfig(4)
	unitCost := func(src, dst, kvTokens int) (float64, float64) { return 0.5, 0.25 }
	cfg.Migration.Cost = unitCost
	cfg.Control.At = []float64{10}
	cfg.Control.Controller = func(now float64, ops *FleetOps) { ops.Drain(0) }
	res := Run(cfg)
	if res.Migrations.Live == 0 || res.Migrations.Lossy != 0 {
		t.Fatalf("drain must migrate live: %+v", res.Migrations)
	}
	if res.Migrations.Tokens == 0 {
		t.Fatal("live migration must move KV tokens")
	}
	if want := float64(res.Migrations.Live) * 0.75; math.Abs(res.Migrations.Time-want) > 1e-9 {
		t.Fatalf("migration time %v, want %v (0.75 per move)", res.Migrations.Time, want)
	}
	d0, d1 := res.PerDevice[0], res.PerDevice[1]
	if d0.MigrationsOut != res.Migrations.Live || d1.MigrationsIn != res.Migrations.Live {
		t.Fatalf("per-device migration counts wrong: out=%d in=%d want %d",
			d0.MigrationsOut, d1.MigrationsIn, res.Migrations.Live)
	}
	if math.Abs(d0.MigrationTime-0.5*float64(d0.MigrationsOut)) > 1e-9 ||
		math.Abs(d1.MigrationTime-0.25*float64(d1.MigrationsIn)) > 1e-9 {
		t.Fatalf("per-device migration time legs wrong: src=%v dst=%v", d0.MigrationTime, d1.MigrationTime)
	}
	// After the drain every session serves on device 1.
	for s, m := range res.PerStream {
		if m.Device != 1 {
			t.Fatalf("session %d still on device %d after drain", s, m.Device)
		}
	}
	// The drained device serves nothing after t=10 but everything still
	// lands: no frames drop on an uncongested fleet.
	if res.Aggregate.FramesDropped != 0 {
		t.Fatalf("drain on an uncongested fleet dropped %d frames", res.Aggregate.FramesDropped)
	}
}

func TestFailLosesKVAndDropsBacklog(t *testing.T) {
	cfg := controlConfig(4)
	cfg.Migration.Cost = func(src, dst, kvTokens int) (float64, float64) {
		t.Fatal("lossy failure re-placement must not price a transfer")
		return 0, 0
	}
	cfg.Control.At = []float64{10}
	cfg.Control.Controller = func(now float64, ops *FleetOps) { ops.Fail(0) }
	res := Run(cfg)
	if res.Migrations.Lossy == 0 || res.Migrations.Live != 0 {
		t.Fatalf("failure must re-place lossily: %+v", res.Migrations)
	}
	if res.Migrations.Time != 0 || res.Migrations.Tokens != 0 {
		t.Fatalf("lossy moves are free and move nothing: %+v", res.Migrations)
	}
	// KV state restarted from StartKV at t=10: a re-placed session's final
	// KV is well below its undisturbed run's.
	undisturbed := Run(controlConfig(4))
	for s := range res.PerStream {
		if undisturbed.PerStream[s].Device != 0 {
			continue // never failed over
		}
		if res.PerStream[s].FinalKV >= undisturbed.PerStream[s].FinalKV {
			t.Fatalf("session %d kept its KV across a failure: %d >= %d",
				s, res.PerStream[s].FinalKV, undisturbed.PerStream[s].FinalKV)
		}
	}
}

func TestDrainChargesMigrationToTimeline(t *testing.T) {
	// The same drain with a large migration cost must push served work later:
	// deterministic, strictly larger p99 on the destination device.
	run := func(cost float64) Result {
		cfg := controlConfig(4)
		cfg.Migration.Cost = func(src, dst, kvTokens int) (float64, float64) { return cost, cost }
		cfg.Control.At = []float64{10}
		cfg.Control.Controller = func(now float64, ops *FleetOps) { ops.Drain(0) }
		return Run(cfg)
	}
	free, priced := run(0), run(2.0)
	if !(priced.Aggregate.P99 > free.Aggregate.P99) {
		t.Fatalf("migration cost must delay service: p99 %v vs %v", priced.Aggregate.P99, free.Aggregate.P99)
	}
	if priced.PerDevice[1].Utilization <= free.PerDevice[1].Utilization {
		t.Fatal("destination must absorb the migration time")
	}
	// Determinism: the same run twice is identical.
	if !reflect.DeepEqual(priced, run(2.0)) {
		t.Fatal("controlled run must be deterministic")
	}
}

func TestActivateRestoresService(t *testing.T) {
	cfg := controlConfig(4)
	cfg.Control.At = []float64{8, 14}
	cfg.Control.Controller = func(now float64, ops *FleetOps) {
		if now < 10 {
			ops.Drain(0)
		} else {
			ops.Activate(0)
		}
	}
	res := Run(cfg)
	// New arrivals after reactivation may land on device 0 again; at minimum
	// the run completes and the device's down window shows in utilization.
	if res.PerDevice[0].Utilization >= res.PerDevice[1].Utilization {
		t.Fatal("drained device must have served less")
	}
	var downs, ups int
	cfg.Observer = ObserverFunc(func(e Event) {
		switch e.Kind {
		case EventDeviceDown:
			downs++
		case EventDeviceUp:
			ups++
		}
	})
	Run(cfg)
	if downs != 1 || ups != 1 {
		t.Fatalf("device lifecycle events: %d down, %d up, want 1/1", downs, ups)
	}
}

func TestScheduledDrainMovesQueuedWork(t *testing.T) {
	// A drained device's queued ready items move with their sessions and
	// serve at the destination.
	cfg := controlConfig(4)
	p, err := ParseScheduler("fifo")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scheduler.Policy = p
	cfg.Control.At = []float64{10}
	cfg.Control.Controller = func(now float64, ops *FleetOps) { ops.Drain(0) }
	moved := 0
	cfg.Observer = ObserverFunc(func(e Event) {
		if e.Kind == EventSessionMigrated {
			moved++
		}
	})
	res := Run(cfg)
	if moved == 0 {
		t.Fatal("drain must migrate sessions")
	}
	if res.Aggregate.FramesDropped != 0 {
		t.Fatalf("uncongested scheduled drain dropped %d frames", res.Aggregate.FramesDropped)
	}
	if res.PerDevice[0].FramesServed+res.PerDevice[1].FramesServed != res.Aggregate.FramesServed {
		t.Fatal("per-device frame counts must still reconcile")
	}
}

func TestScheduledFailDropsQueuedWork(t *testing.T) {
	// Overload one device so its ready queue is non-empty, then kill it: the
	// queued frames drop and their sessions restart elsewhere.
	cfg := baseConfig(hwsim.AGXOrin(), hwsim.FlexGenModel(), 6)
	cfg.Devices = 2
	cfg.Classes[0].Stream.StartKV = 20000
	p, err := ParseScheduler("fifo")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scheduler.Policy = p
	cfg.DropThreshold = 0 // keep the backlog queued, not dropped
	cfg.Control.At = []float64{10}
	cfg.Control.Controller = func(now float64, ops *FleetOps) { ops.Fail(0) }
	res := Run(cfg)
	if res.Migrations.Lossy == 0 {
		t.Fatalf("failure must re-place sessions: %+v", res.Migrations)
	}
	if res.Aggregate.FramesDropped == 0 {
		t.Fatal("killing a backlogged device must drop its queued frames")
	}
	if !reflect.DeepEqual(res, Run(cfg)) {
		t.Fatal("failure injection must be deterministic")
	}
}

func TestMigrateSingleSession(t *testing.T) {
	cfg := controlConfig(2)
	cfg.Migration.Cost = func(src, dst, kvTokens int) (float64, float64) { return 0.1, 0.1 }
	cfg.Control.At = []float64{5}
	cfg.Control.Controller = func(now float64, ops *FleetOps) {
		on := ops.SessionsOn(0)
		if len(on) == 0 {
			t.Fatal("device 0 must hold a session at t=5")
		}
		if ops.e.kv[on[0]] <= 0 {
			t.Fatal("resident session must have KV")
		}
		ops.Migrate(on[0], 1)
		ops.Migrate(on[0], 1) // no-op: already there
	}
	res := Run(cfg)
	if res.Migrations.Live != 1 {
		t.Fatalf("exactly one live migration, got %+v", res.Migrations)
	}
}

func TestHeterogeneousDevSpecs(t *testing.T) {
	// A VRex8 + AGXOrin fleet: the slow device's sessions see much worse
	// latency than the fast device's, and DevSpecs matching Dev everywhere
	// reproduces the homogeneous run exactly.
	cfg := controlConfig(4)
	uniform := cfg
	uniform.DevSpecs = []hwsim.DeviceSpec{hwsim.VRex8(), hwsim.VRex8()}
	if !reflect.DeepEqual(Run(cfg), Run(uniform)) {
		t.Fatal("DevSpecs of all Dev must reproduce the homogeneous fleet")
	}
	mixed := cfg
	mixed.Classes = slices.Clone(cfg.Classes)
	mixed.Classes[0].Stream.StartKV = 20000
	mixed.DevSpecs = []hwsim.DeviceSpec{hwsim.VRex8(), hwsim.AGXOrin()}
	res := Run(mixed)
	var fast, slow []int
	for s, m := range res.PerStream {
		if m.Device == 0 {
			fast = append(fast, s)
		} else {
			slow = append(slow, s)
		}
	}
	if len(fast) == 0 || len(slow) == 0 {
		t.Fatal("round-robin must populate both devices")
	}
	if res.PerStream[slow[0]].P50 <= res.PerStream[fast[0]].P50 {
		t.Fatalf("AGXOrin p50 %v must exceed VRex8 p50 %v",
			res.PerStream[slow[0]].P50, res.PerStream[fast[0]].P50)
	}
}

func TestDevSpecsLengthValidated(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched DevSpecs length must panic")
		}
	}()
	cfg := controlConfig(2)
	cfg.DevSpecs = []hwsim.DeviceSpec{hwsim.VRex8()} // fleet is 2 devices
	Run(cfg)
}
