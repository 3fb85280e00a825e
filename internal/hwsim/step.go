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
// therefore costs exactly what Chunk(n, kv, 1, stage) does, and Query prices
// a solo query as a run of one-request steps in one call.
//
// Requests with no new tokens are ignored. The caller is responsible for
// per-stream OOM admission (see Sim.OOM); a step whose combined resident
// footprint exceeds device memory reports OOM with no cost, like Chunk.
//
//vrex:noalloc
func (s *Sim) Step(reqs []StepReq) (b Breakdown) {
	t := s.terms()
	c := stepCost{resident: t.weightBytes}
	for i := range reqs {
		r := &reqs[i]
		s.addStream(&t, &c, r.NewTokens, r.KVLen, 1, r.Stage, r.scale())
	}
	s.price(&t, &c, &b)
	return b
}

// Query prices one stream's solo query: r's prefill, then answer one-token
// decode steps at r's stage and budget scale, the cache growing by one token
// per step from r.KVLen+r.NewTokens. It returns the sum of the steps'
// Totals, prefill first, and records each priced step in the phase account:
// exactly what Step returns and records for each of those one-request steps
// in turn. An OOM step costs 0, as in Step; the caller admits the query at
// its peak KV length first (see OOM). The spec-only terms are derived once
// for the whole query.
//
//vrex:noalloc
func (s *Sim) Query(r StepReq, answer int) float64 {
	t := s.terms()
	scale := r.scale()
	var b Breakdown
	c := stepCost{resident: t.weightBytes}
	s.addStream(&t, &c, r.NewTokens, r.KVLen, 1, r.Stage, scale)
	s.price(&t, &c, &b)
	total := b.Total
	kv := r.KVLen + r.NewTokens
	for i := 0; i < answer; i++ {
		c = stepCost{resident: t.weightBytes}
		s.addStream(&t, &c, 1, kv+i, 1, r.Stage, scale)
		s.price(&t, &c, &b)
		total += b.Total
	}
	return total
}

// OOM reports whether stream r alone would exceed device memory — the same
// resident-footprint check Step applies before pricing, over r's KV length
// and budget scale (NewTokens and Stage do not enter the footprint). The
// serving scheduler uses it to admit work per stream before pricing a step.
// It is called once per admitted frame, so it derives only the two terms
// the footprint needs.
//
//vrex:noalloc
func (s *Sim) OOM(r StepReq) bool {
	kv := s.residentKV(s.LLM.KVBytesPerToken(), s.Pol.quantFactor(), r.KVLen, 1, r.scale())
	return s.oom(s.LLM.WeightBytes()+kv, 1)
}
