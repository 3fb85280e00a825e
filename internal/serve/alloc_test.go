package serve_test

import (
	"runtime/debug"
	"testing"

	"vrex/internal/scenario"
	"vrex/internal/serve"
	"vrex/scenarios"
)

// runAllocs is each committed single-node scenario's heap allocations per
// serve.Run, compiled as written and run at one worker, with or without
// -race. A change that moves one updates it here and names the cause, as
// with an output golden.
var runAllocs = map[string]float64{
	"burst.vrex":        68,
	"diurnal.vrex":      66,
	"flash-crowd.vrex":  70,
	"heavy-tail.vrex":   70,
	"pressure.vrex":     100,
	"trace-replay.vrex": 57,
}

// TestRunAllocsGolden: every committed single-node scenario allocates
// exactly its committed count per run, and every count names a committed
// scenario.
func TestRunAllocsGolden(t *testing.T) {
	seen := 0
	for _, name := range scenarios.Names() {
		src, err := scenarios.Source(name)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := scenario.Parse(name, src)
		if err != nil {
			t.Fatal(err)
		}
		if sc.IsCluster() {
			continue
		}
		cfg, err := sc.Config()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 1
		want, ok := runAllocs[name]
		if !ok {
			t.Errorf("%s: no committed allocation count", name)
			continue
		}
		seen++
		if got := allocsPerRun(func() { serve.Run(cfg) }); got != want {
			t.Errorf("%s: %v allocations per run, committed %v", name, got, want)
		}
	}
	if seen != len(runAllocs) {
		t.Errorf("%d committed allocation counts, %d single-node scenarios", len(runAllocs), seen)
	}
}

// allocsPerRun is testing.AllocsPerRun over 20 runs with the collector off.
// Now and then the runtime allocates a few objects of its own during a run,
// mostly around a collection: in 2,000 runs of each scenario, 9 of 12,000
// read one to nine high. The integer mean over 20 runs drops those, and
// still shows one allocation more per run.
func allocsPerRun(f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(20, f)
}
