package hwsim

import "testing"

// policyCases covers every prediction family: ReSV on the DRE, GPU top-k
// (on device and offloaded), cluster retrieval, and the dense baseline.
var policyCases = []struct {
	dev DeviceSpec
	pol PolicyModel
}{
	{VRex8(), ReSVModel()},
	{AGXOrin(), FlexGenModel()},
	{AGXOrin(), ReKVModel()},
	{A100(), InfiniGenModel()},
	{AGXOrin(), DenseModel()},
}

// scaledRef is the test-local reference for StepReq.RatioScale: the same
// simulator with the policy's fetch ratios pre-multiplied by b.
func scaledRef(sim *Sim, b float64) *Sim {
	ref := *sim
	ref.Pol.FrameRatio *= b
	ref.Pol.TextRatio *= b
	return &ref
}

// TestStepSingleMatchesChunk pins the batch-1 anchor: a one-request step is
// byte-identical to the corresponding Chunk, for every policy family and
// both stages — the property the serving plane's batch-1 scheduler
// equivalence rests on.
func TestStepSingleMatchesChunk(t *testing.T) {
	for _, c := range policyCases {
		sim := NewSim(c.dev, Llama3_8B(), c.pol)
		for _, kv := range []int{0, 1000, 20000, 40000} {
			for _, stage := range []StageKind{StageFramePhase, StageTextPhase} {
				n := 10
				if stage == StageTextPhase {
					n = 25
				}
				got := sim.Step([]StepReq{{NewTokens: n, KVLen: kv, Stage: stage}})
				want := sim.Chunk(n, kv, 1, stage)
				if got != want {
					t.Fatalf("%s+%s kv=%d stage=%d: Step != Chunk\n%+v\n%+v",
						c.dev.Name, c.pol.Name, kv, stage, got, want)
				}
			}
		}
	}
}

// TestStepBatchAmortizes is the reason continuous batching exists: a step of
// k frames is strictly cheaper than k serial frame steps (the weight read
// and host frame overhead are charged once), but strictly more expensive
// than one frame (per-token and per-stream work still accumulates).
func TestStepBatchAmortizes(t *testing.T) {
	sim := NewSim(VRex8(), Llama3_8B(), ReSVModel())
	solo := sim.Step([]StepReq{{NewTokens: 10, KVLen: 20000, Stage: StageFramePhase}})
	for _, k := range []int{2, 4, 8} {
		reqs := make([]StepReq, k)
		for i := range reqs {
			reqs[i] = StepReq{NewTokens: 10, KVLen: 20000, Stage: StageFramePhase}
		}
		b := sim.Step(reqs)
		if b.OOM {
			t.Fatalf("batch %d OOM", k)
		}
		if b.Total >= float64(k)*solo.Total {
			t.Fatalf("batch %d total %v not cheaper than %d serial steps %v",
				k, b.Total, k, float64(k)*solo.Total)
		}
		if b.Total <= solo.Total {
			t.Fatalf("batch %d total %v not above a single frame %v", k, b.Total, solo.Total)
		}
	}
}

// TestStepMonotoneInMembers: adding a member never makes the step cheaper.
func TestStepMonotoneInMembers(t *testing.T) {
	sim := NewSim(VRex8(), Llama3_8B(), ReSVModel())
	prev := 0.0
	var reqs []StepReq
	for k := 1; k <= 8; k++ {
		reqs = append(reqs, StepReq{NewTokens: 10, KVLen: 10000 + 1000*k, Stage: StageFramePhase})
		b := sim.Step(reqs)
		if b.Total <= prev {
			t.Fatalf("step total not strictly increasing at %d members: %v then %v", k, prev, b.Total)
		}
		prev = b.Total
	}
}

// TestStepDegenerate: empty and token-free requests cost nothing.
func TestStepDegenerate(t *testing.T) {
	sim := NewSim(VRex8(), Llama3_8B(), ReSVModel())
	if b := sim.Step(nil); b.Total != 0 || b.OOM {
		t.Fatalf("empty step: %+v", b)
	}
	if b := sim.Step([]StepReq{{NewTokens: 0, KVLen: 5000}}); b.Total != 0 || b.OOM {
		t.Fatalf("token-free step: %+v", b)
	}
	// Zero-token requests are ignored inside a real batch too: the pair
	// (live, dead) prices exactly like the live request alone.
	live := sim.Step([]StepReq{{NewTokens: 10, KVLen: 5000, Stage: StageFramePhase}})
	mixed := sim.Step([]StepReq{
		{NewTokens: 10, KVLen: 5000, Stage: StageFramePhase},
		{NewTokens: 0, KVLen: 9000},
	})
	if mixed != live {
		t.Fatalf("dead request changed the step: %+v vs %+v", mixed, live)
	}
}

// TestStepMixedStages: frame and text requests coalesce; the mixed step
// costs more than the frame alone (prefill/decode interference) but charges
// the vision tower and frame overhead only for the frame members.
func TestStepMixedStages(t *testing.T) {
	sim := NewSim(VRex8(), Llama3_8B(), ReSVModel())
	frame := StepReq{NewTokens: 10, KVLen: 20000, Stage: StageFramePhase}
	text := StepReq{NewTokens: 1, KVLen: 20000, Stage: StageTextPhase}
	fOnly := sim.Step([]StepReq{frame, frame})
	mixed := sim.Step([]StepReq{frame, frame, text})
	if mixed.Total <= fOnly.Total {
		t.Fatalf("decode rider should add cost: %v vs %v", mixed.Total, fOnly.Total)
	}
	if mixed.VisionTime != fOnly.VisionTime {
		t.Fatalf("text request changed vision time: %v vs %v", mixed.VisionTime, fOnly.VisionTime)
	}
}

// TestStepCombinedOOM: members that fit individually can exceed device
// memory together; the step reports OOM with no cost, like Chunk.
func TestStepCombinedOOM(t *testing.T) {
	sim := NewSim(AGXOrin(), Llama3_8B(), DenseModel())
	solo := StepReq{NewTokens: 10, KVLen: 60000, Stage: StageFramePhase}
	if sim.OOM(solo) {
		t.Fatal("solo request should fit")
	}
	b := sim.Step([]StepReq{solo, solo})
	if !b.OOM || b.Total != 0 {
		t.Fatalf("combined working set must OOM: %+v", b)
	}
}

// TestScaledPricing pins the degradation hook: a request at RatioScale b
// prices exactly like an unscaled request against the reference policy whose
// fetch ratios are pre-multiplied by b, solo and in a batch, for every
// policy family and both stages; and a smaller budget is strictly cheaper
// and fetches proportionally fewer bytes.
func TestScaledPricing(t *testing.T) {
	for _, c := range policyCases {
		sim := NewSim(c.dev, Llama3_8B(), c.pol)
		for _, b := range []float64{0.7, 0.49, 0.25} {
			ref := scaledRef(sim, b)
			for _, stage := range []StageKind{StageFramePhase, StageTextPhase} {
				plain := []StepReq{
					{NewTokens: 10, KVLen: 20000, Stage: stage},
					{NewTokens: 10, KVLen: 35000, Stage: stage},
				}
				scaled := append([]StepReq(nil), plain...)
				for i := range scaled {
					scaled[i].RatioScale = b
				}
				if got, want := sim.Step(scaled[:1]), ref.Step(plain[:1]); got != want {
					t.Fatalf("%s+%s b=%g stage=%d solo: %+v != reference %+v",
						c.dev.Name, c.pol.Name, b, stage, got, want)
				}
				if got, want := sim.Step(scaled), ref.Step(plain); got != want {
					t.Fatalf("%s+%s b=%g stage=%d batch: %+v != reference %+v",
						c.dev.Name, c.pol.Name, b, stage, got, want)
				}
			}
		}
	}

	sim := NewSim(VRex8(), Llama3_8B(), ReSVModel())
	req := StepReq{NewTokens: 10, KVLen: 40000, Stage: StageFramePhase}
	full := sim.Step([]StepReq{req})
	prev := full.Total
	for _, b := range []float64{0.7, 0.49, 0.25} {
		r := req
		r.RatioScale = b
		got := sim.Step([]StepReq{r})
		if got.Total >= prev {
			t.Fatalf("scale %g: total %v not below %v", b, got.Total, prev)
		}
		if got.FetchBytes >= full.FetchBytes*b*1.01 {
			t.Fatalf("scale %g: fetch bytes %v not scaled from %v", b, got.FetchBytes, full.FetchBytes)
		}
		prev = got.Total
	}
}

// TestStepRatioScale pins the zero-value convention and the per-request
// scaling path: RatioScale 0 prices identically to an unscaled request (both
// solo and batched), a scaled solo request matches the reference Chunk
// exactly, and scaling one member of a batch makes the step cheaper.
func TestStepRatioScale(t *testing.T) {
	sim := NewSim(VRex8(), Llama3_8B(), ReSVModel())
	req := StepReq{NewTokens: 10, KVLen: 40000, Stage: StageFramePhase}
	if got, want := sim.Step([]StepReq{req}), sim.Chunk(10, 40000, 1, StageFramePhase); got != want {
		t.Fatalf("zero RatioScale solo: %+v != %+v", got, want)
	}
	scaled := req
	scaled.RatioScale = 0.5
	if got, want := sim.Step([]StepReq{scaled}), scaledRef(sim, 0.5).Chunk(10, 40000, 1, StageFramePhase); got != want {
		t.Fatalf("scaled solo: %+v != %+v", got, want)
	}
	full := sim.Step([]StepReq{req, req})
	mixed := sim.Step([]StepReq{req, scaled})
	if mixed.Total >= full.Total {
		t.Fatalf("degraded member should cheapen the step: %v vs %v", mixed.Total, full.Total)
	}
	explicit := req
	explicit.RatioScale = 1
	if got := sim.Step([]StepReq{req, explicit}); got != full {
		t.Fatalf("RatioScale 1 differs from zero value: %+v vs %+v", got, full)
	}
}

// firstOOM returns the smallest KV length at which a stream at budget scale
// b no longer fits in the simulator's device memory.
func firstOOM(sim *Sim, b float64) int {
	lo, hi := 0, 1<<30 // lo fits, hi does not
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if sim.OOM(StepReq{KVLen: mid, RatioScale: b}) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// TestOOMMatchesChunk: the exported admission check is the cost model's own
// resident check — OOM(r) equals Step([]StepReq{r}).OOM (and, unscaled,
// Chunk's) on both sides of the memory limit, scaled and unscaled, for a
// resident (Dense) and an offloading (ReSV) policy.
func TestOOMMatchesChunk(t *testing.T) {
	for _, pol := range []PolicyModel{DenseModel(), ReSVModel()} {
		sim := NewSim(AGXOrin(), Llama3_8B(), pol)
		for _, b := range []float64{0, 0.49} {
			limit := firstOOM(sim, b)
			if limit < 10000 {
				t.Fatalf("%s b=%g: memory limit at %d tokens", pol.Name, b, limit)
			}
			for _, kv := range []int{1000, limit - 1, limit, limit + 1, 2 * limit} {
				r := StepReq{NewTokens: 10, KVLen: kv, Stage: StageFramePhase, RatioScale: b}
				oom := sim.OOM(r)
				if want := kv >= limit; oom != want {
					t.Fatalf("%s b=%g kv=%d: OOM %v, want %v", pol.Name, b, kv, oom, want)
				}
				if step := sim.Step([]StepReq{r}).OOM; oom != step {
					t.Fatalf("%s b=%g kv=%d: OOM %v, Step reports %v", pol.Name, b, kv, oom, step)
				}
				if chunk := sim.Chunk(10, kv, 1, StageFramePhase).OOM; b == 0 && oom != chunk {
					t.Fatalf("%s kv=%d: OOM %v, Chunk reports %v", pol.Name, kv, oom, chunk)
				}
			}
		}
	}
	// An offloading policy keeps only the fetched working set resident, so a
	// degraded budget fits a longer cache.
	resv := NewSim(AGXOrin(), Llama3_8B(), ReSVModel())
	if full, degraded := firstOOM(resv, 0), firstOOM(resv, 0.49); degraded <= full {
		t.Fatalf("ReSV memory limit %d tokens at budget 0.49, %d at full budget", degraded, full)
	}
}
