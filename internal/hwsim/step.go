package hwsim

// StepReq is one stream's contribution to a coalesced hardware step: n new
// tokens attending to that stream's own cached KV, at the given stage. The
// serving plane's continuous-batching scheduler builds one StepReq per
// co-scheduled frame.
type StepReq struct {
	// NewTokens is the stream's new tokens this step (tokens-per-frame for a
	// video frame, prompt length for a query prefill, 1 for a decode token).
	NewTokens int
	// KVLen is the stream's cached context length at step start.
	KVLen int
	// Stage selects the policy's fetch ratio and, for StageFramePhase, the
	// vision tower cost.
	Stage StageKind
	// RatioScale multiplies the policy's fetch ratio for this stream — the
	// degradation plane's per-session retrieval budget, which shrinks the
	// stream's attention, fetch and resident working set. 0 means unscaled
	// (1), so the zero value prices identically to a request without the
	// field.
	RatioScale float64
}

// scale resolves RatioScale's zero-means-unscaled convention.
func (r StepReq) scale() float64 {
	if r.RatioScale == 0 {
		return 1
	}
	return r.RatioScale
}

// Step simulates one continuous-batching hardware step over a heterogeneous
// batch of streams. Unlike Chunk's homogeneous batch parameter (every stream
// at the same KV length), each request carries its own cache length, stage
// and budget scale, which is what a real multi-stream scheduler produces.
// Each request is one stream of the cost model (cost.go): per-stream work
// sums across the batch, per-step work (weight reads, the vision tower's
// weights, the host frame overhead) is charged once. A one-request step
// therefore costs exactly what Chunk(n, kv, 1, stage) does.
//
// Requests with no new tokens are ignored. The caller is responsible for
// per-stream OOM admission (see Sim.OOM); a step whose combined resident
// footprint exceeds device memory reports OOM with no cost, like Chunk.
//
//vrex:noalloc
func (s *Sim) Step(reqs []StepReq) Breakdown {
	c := s.newCost()
	for _, r := range reqs {
		s.addStream(&c, r.NewTokens, r.KVLen, 1, r.Stage, r.scale())
	}
	return s.price(&c)
}

// OOM reports whether stream r alone would exceed device memory — the same
// resident-footprint check Step applies before pricing, over r's KV length
// and budget scale (NewTokens and Stage do not enter the footprint). The
// serving scheduler uses it to admit work per stream before pricing a step.
//
//vrex:noalloc
func (s *Sim) OOM(r StepReq) bool {
	c := s.newCost()
	s.addResident(&c, r.KVLen, 1, r.scale())
	return s.oom(&c)
}
