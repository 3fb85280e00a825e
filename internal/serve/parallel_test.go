package serve

import (
	"reflect"
	"testing"

	"vrex/internal/hwsim"
)

// TestRunParallelEquivalence: the serving simulation must produce identical
// per-stream metrics and utilization for any worker count — the per-session
// metric reduction after the device loop is sharded.
func TestRunParallelEquivalence(t *testing.T) {
	cfg := baseConfig(hwsim.VRex8(), hwsim.ReSVModel(), 6)
	cfg.Classes[0].Stream.QueryEvery = 7
	cfg.Workers = 1
	seq := Run(cfg)
	for _, w := range []int{2, 8} {
		c := cfg
		c.Workers = w
		par := Run(c)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d diverged from sequential:\nseq: %+v\npar: %+v", w, seq, par)
		}
	}
}

// TestStreamSeedIndependence: adding a stream must not perturb the arrival
// processes of existing streams (per-stream derived seeds, not a shared
// generator). Stream 0 of a 1-stream run sees the device alone, so compare
// arrival counts, which depend only on the schedule.
func TestStreamSeedIndependence(t *testing.T) {
	small := baseConfig(hwsim.VRex48(), hwsim.ReSVModel(), 1)
	big := baseConfig(hwsim.VRex48(), hwsim.ReSVModel(), 4)
	a := Run(small).PerStream[0]
	b := Run(big).PerStream[0]
	if a.FramesArrived != b.FramesArrived {
		t.Fatalf("stream 0 arrivals changed with stream count: %d vs %d",
			a.FramesArrived, b.FramesArrived)
	}
}
