package serve

import (
	"math"
	"reflect"
	"testing"
)

// recorder captures the full event stream, device stalls included.
type recorder struct{ events []Event }

func (r *recorder) Observe(ev Event) { r.events = append(r.events, ev) }

// telemetryConfig is a deliberately stressed run exercising every charge
// path at once: KV pool small enough to spill, EDF batching, a degradation
// controller, and a mid-run drain forcing priced live migrations.
func telemetryConfig(t *testing.T) Config {
	t.Helper()
	cfg := kvConfig(10, 2, 40*pageBytes250, "spill(evict=lru,pages=8)")
	p, err := ParseScheduler("edf")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scheduler.Policy = p
	cfg.Scheduler.BatchMax = 4
	cfg.Degrade = degradeConfig(t, "pressure(lo=0.2,hi=0.5)")
	cfg.Migration.Cost = func(src, dst, kvTokens int) (float64, float64) {
		return 1e-6 * float64(kvTokens), 0.5e-6 * float64(kvTokens)
	}
	cfg.Control.At = []float64{8, 14}
	drained := false
	cfg.Control.Controller = func(now float64, ops *FleetOps) {
		if !drained {
			ops.Drain(0)
			drained = true
		} else {
			ops.Activate(0)
		}
	}
	return cfg
}

// TestTelemetryDoesNotPerturbResult pins the plane's observer-only
// contract: attaching an observer and a profile leaves every Result field
// byte-identical to the bare run.
func TestTelemetryDoesNotPerturbResult(t *testing.T) {
	bare := Run(telemetryConfig(t))
	wired := telemetryConfig(t)
	wired.Observer, wired.Profile = &recorder{}, &PhaseProfile{}
	if got := Run(wired); !reflect.DeepEqual(bare, got) {
		t.Fatal("attaching telemetry changed the result")
	}
}

// TestPhaseProfileConservation pins the attribution invariant on a run that
// exercises compute, paging and migration charges: the phase buckets sum to
// exactly the device-seconds the engine charged (within float tolerance),
// and the stall events reconcile with the paging/migration buckets.
func TestPhaseProfileConservation(t *testing.T) {
	cfg := telemetryConfig(t)
	rec := &recorder{}
	prof := &PhaseProfile{}
	cfg.Observer, cfg.Profile = rec, prof
	res := Run(cfg)

	if prof.Charged <= 0 || prof.Sim.Steps == 0 {
		t.Fatalf("profile saw no work: charged=%v steps=%d", prof.Charged, prof.Sim.Steps)
	}
	if diff := math.Abs(prof.Total() - prof.Charged); diff > 1e-9 {
		t.Fatalf("attribution leak: |Total-Charged| = %g (total=%v charged=%v)",
			diff, prof.Total(), prof.Charged)
	}
	// The stressed config must actually exercise the non-compute buckets.
	if prof.PageIn+prof.PageOut == 0 {
		t.Fatal("pressured run charged no paging")
	}
	if prof.MigrationSend == 0 || prof.MigrationRecv == 0 {
		t.Fatalf("drain charged no migration legs: %+v", prof)
	}
	if res.Migrations.Live == 0 {
		t.Fatal("expected live migrations")
	}
	// Stall events reconcile with the profile's non-compute buckets.
	sums := make(map[EventKind]float64)
	for _, ev := range rec.events {
		switch ev.Kind {
		case EventPageIn, EventPageOut, EventMigrateSend, EventMigrateRecv:
			if ev.Session != -1 || !(ev.Latency > 0) {
				t.Fatalf("stall event must have session -1 and a positive duration: %+v", ev)
			}
			sums[ev.Kind] += ev.Latency
		default:
		}
	}
	for _, chk := range []struct {
		kind EventKind
		want float64
	}{
		{EventPageIn, prof.PageIn},
		{EventPageOut, prof.PageOut},
		{EventMigrateSend, prof.MigrationSend},
		{EventMigrateRecv, prof.MigrationRecv},
	} {
		if math.Abs(sums[chk.kind]-chk.want) > 1e-9 {
			t.Fatalf("%v stalls sum %v, profile bucket %v", chk.kind, sums[chk.kind], chk.want)
		}
	}
}
