package hwsim

import (
	"math"
	"testing"
)

// TestPhaseAccountPartitionsTotal pins the telemetry invariant: the five
// phase buckets partition each priced Breakdown.Total exactly, so the
// account total equals the sum of chunk totals.
func TestPhaseAccountPartitionsTotal(t *testing.T) {
	var acct PhaseAccount
	sim := NewSim(VRex8(), Llama3_8B(), ReSVModel())
	sim.Phases = &acct

	var want float64
	for i, kv := range []int{0, 1000, 40000, 120000} {
		b := sim.FrameLatency(10, kv, 1+i%2)
		want += b.Total
		q := sim.TPOT(kv, 1)
		want += q.Total
	}
	if acct.Steps != 8 {
		t.Fatalf("Steps = %d, want 8", acct.Steps)
	}
	if got := acct.Total(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("account total %g != summed chunk totals %g", got, want)
	}
}

// TestPhaseAccountStepPaths checks one-request and multi-request steps each
// feed the account exactly once.
func TestPhaseAccountStepPaths(t *testing.T) {
	var acct PhaseAccount
	sim := NewSim(VRex8(), Llama3_8B(), ReSVModel())
	sim.Phases = &acct

	one := sim.Step([]StepReq{{NewTokens: 10, KVLen: 5000, Stage: StageFramePhase}})
	if acct.Steps != 1 {
		t.Fatalf("after batch-1 step: Steps = %d, want 1", acct.Steps)
	}
	many := sim.Step([]StepReq{
		{NewTokens: 10, KVLen: 5000, Stage: StageFramePhase},
		{NewTokens: 1, KVLen: 12000, Stage: StageTextPhase},
	})
	if acct.Steps != 2 {
		t.Fatalf("after multi step: Steps = %d, want 2", acct.Steps)
	}
	want := one.Total + many.Total
	if got := acct.Total(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("account total %g != %g", got, want)
	}

	// OOM and empty steps price nothing and must not count.
	small := *sim
	small.Dev.MemCapacity = 1
	small.Phases = &acct
	if b := small.Step([]StepReq{{NewTokens: 10, KVLen: 40000}, {NewTokens: 10, KVLen: 40000}}); !b.OOM {
		t.Fatal("expected OOM")
	}
	sim.Step(nil)
	if acct.Steps != 2 {
		t.Fatalf("OOM/empty steps leaked into account: Steps = %d, want 2", acct.Steps)
	}
}

// TestPhaseAccountRecordsDegraded pins that degraded pricing records into the
// sim's own account: a request at RatioScale 0.5 counts once and adds
// exactly its Total, solo and in a batch.
func TestPhaseAccountRecordsDegraded(t *testing.T) {
	var acct PhaseAccount
	sim := NewSim(VRex8(), Llama3_8B(), ReSVModel())
	sim.Phases = &acct
	r := StepReq{NewTokens: 10, KVLen: 40000, Stage: StageFramePhase, RatioScale: 0.5}
	want := sim.Step([]StepReq{r}).Total + sim.Step([]StepReq{r, {NewTokens: 1, KVLen: 9000}}).Total
	if acct.Steps != 2 {
		t.Fatalf("degraded steps did not record into the sim's account: Steps = %d, want 2", acct.Steps)
	}
	if got := acct.Total(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("account total %g != %g", got, want)
	}
}

// TestPhaseAccountZeroAlloc guards the hot path: pricing a step or a query
// allocates nothing whether the account is nil or attached.
func TestPhaseAccountZeroAlloc(t *testing.T) {
	sim := NewSim(VRex8(), Llama3_8B(), ReSVModel())
	reqs := []StepReq{
		{NewTokens: 10, KVLen: 40000, Stage: StageFramePhase},
		{NewTokens: 1, KVLen: 20000, Stage: StageTextPhase},
	}
	query := StepReq{NewTokens: 25, KVLen: 4000, Stage: StageTextPhase, RatioScale: 0.7}
	for _, phases := range []*PhaseAccount{nil, {}} {
		sim.Phases = phases
		if n := testing.AllocsPerRun(100, func() { sim.Step(reqs) }); n != 0 {
			t.Fatalf("Phases %p: %v allocs/step, want 0", phases, n)
		}
		if n := testing.AllocsPerRun(100, func() { sim.Query(query, 39) }); n != 0 {
			t.Fatalf("Phases %p: %v allocs/query, want 0", phases, n)
		}
	}
}
