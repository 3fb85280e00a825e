package hwsim

import "vrex/internal/vision"

// Breakdown is the simulated cost of processing one chunk (a video frame or
// a text step) end to end. "Raw" components are busy times of each engine;
// "Exposed" components are what remains on the critical path after the
// Fig. 5 overlap pipeline. Total is the critical-path latency.
type Breakdown struct {
	// VisionTime is the vision tower + projector time (frame stage only).
	VisionTime float64
	// LinearTime is QKVO+FFN GEMM time across layers.
	LinearTime float64
	// AttnTime is attention kernel time across layers.
	AttnTime float64
	// PredRaw is KV-prediction busy time (wherever it runs).
	PredRaw float64
	// PredExposed is prediction time on the critical path (zero when the
	// DRE hides it).
	PredExposed float64
	// FetchRaw is the KV fetch busy time on the link/SSD.
	FetchRaw float64
	// FetchExposed is fetch time on the critical path after overlap.
	FetchExposed float64
	// DRETime is the DRE busy time (V-Rex only).
	DRETime float64
	// Total is the end-to-end chunk latency in seconds.
	Total float64
	// EnergyJ is the system energy for the chunk in joules.
	EnergyJ float64
	// UsefulFLOPs counts LLM compute (linear + attention), the numerator of
	// the efficiency metrics.
	UsefulFLOPs float64
	// FetchBytes is the KV traffic across the link.
	FetchBytes float64
	// OOM marks that the resident footprint exceeded device memory.
	OOM bool
}

// LLMTime returns the exposed LLM compute time (linear + attention).
func (b Breakdown) LLMTime() float64 { return b.LinearTime + b.AttnTime }

// RetrievalExposed returns the exposed retrieval overhead (prediction +
// fetch on the critical path).
func (b Breakdown) RetrievalExposed() float64 { return b.PredExposed + b.FetchExposed }

// Sim evaluates chunk latencies for one device + LLM + policy combination.
type Sim struct {
	Dev DeviceSpec
	LLM LLMSpec
	Pol PolicyModel
	// VisionCost is charged once per frame chunk (nil disables).
	VisionCost *vision.ViTCost
	// Phases, when non-nil, accumulates each priced chunk/step into a
	// per-phase time account (telemetry plane).
	Phases *PhaseAccount
}

// NewSim builds a simulator with the SigLIP vision cost attached.
func NewSim(dev DeviceSpec, llm LLMSpec, pol PolicyModel) *Sim {
	vc := vision.SigLIPViTL384Cost(10)
	return &Sim{Dev: dev, LLM: llm, Pol: pol, VisionCost: &vc}
}

// Chunk simulates one chunk of n new tokens per stream against a cache of
// kvLen tokens, at the given batch size and stage: batch identical streams
// priced by the one cost model (cost.go) at full retrieval budget.
//
//vrex:noalloc
func (s *Sim) Chunk(n, kvLen, batch int, stage StageKind) (b Breakdown) {
	t := s.terms()
	c := stepCost{resident: t.weightBytes}
	s.addStream(&t, &c, n, kvLen, batch, stage, 1)
	s.price(&t, &c, &b)
	return b
}

// FrameLatency simulates processing one video frame (tokensPerFrame new
// tokens) against a kvLen cache at the given batch.
func (s *Sim) FrameLatency(tokensPerFrame, kvLen, batch int) Breakdown {
	return s.Chunk(tokensPerFrame, kvLen, batch, StageFramePhase)
}

// TPOT simulates one generated output token (time per output token).
func (s *Sim) TPOT(kvLen, batch int) Breakdown {
	return s.Chunk(1, kvLen, batch, StageTextPhase)
}

// GOPSPerWatt returns the chunk's energy-efficiency metric.
func (b Breakdown) GOPSPerWatt() float64 {
	if b.EnergyJ <= 0 {
		return 0
	}
	return b.UsefulFLOPs / 1e9 / b.EnergyJ
}

// FPS returns frames/second implied by the chunk latency.
func (b Breakdown) FPS() float64 {
	if b.Total <= 0 {
		return 0
	}
	return 1 / b.Total
}
