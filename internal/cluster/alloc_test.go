package cluster_test

import (
	"math/bits"
	"runtime/debug"
	"testing"

	"vrex/internal/cluster"
	"vrex/internal/scenario"
	"vrex/scenarios"
)

// nodeFaultAllocs is node-fault.vrex's heap allocations per cluster.Run,
// compiled as written and run at one worker, with or without -race. The
// count depends on the word size: the first is a 64-bit build's, the second
// a 32-bit build's, measured as GOARCH=386. A change that moves one updates
// it here and names the cause, as with an output golden.
var nodeFaultAllocs = [2]float64{149, 144}[(64-bits.UintSize)/32]

// TestRunAllocsGolden: the committed cluster scenario allocates exactly its
// committed count per run.
func TestRunAllocsGolden(t *testing.T) {
	const name = "node-fault.vrex"
	src, err := scenarios.Source(name)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Parse(name, src)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sc.ClusterConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Base.Workers = 1
	// The integer mean over 20 runs with the collector off drops the few
	// objects the runtime now and then allocates during a run, mostly around
	// a collection, and still shows one allocation more per run.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if got := testing.AllocsPerRun(20, func() { cluster.Run(cfg) }); got != nodeFaultAllocs {
		t.Errorf("%s: %v allocations per run, committed %v", name, got, nodeFaultAllocs)
	}
}
