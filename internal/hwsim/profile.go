package hwsim

// PhaseAccount accumulates simulated compute time by phase across every
// Chunk/Step a Sim prices — the telemetry plane's one-level-deep flamegraph
// of where device-seconds go. Attach one via Sim.Phases; degraded requests
// (StepReq.RatioScale) price through the same Sim, so they fold into it too.
// The five buckets partition Breakdown.Total exactly: Vision + Linear +
// Attn + Pred + Fetch == sum of Totals (Pred and Fetch record the *exposed*
// critical-path components, matching what the serving engine charges).
type PhaseAccount struct {
	// Vision is vision tower + projector + host frame-handling time.
	Vision float64
	// Linear is QKVO+FFN GEMM time (weights).
	Linear float64
	// Attn is attention kernel time.
	Attn float64
	// Pred is exposed KV-prediction time.
	Pred float64
	// Fetch is exposed retrieval-fetch time.
	Fetch float64
	// Steps counts priced chunks/steps (OOM and empty calls excluded).
	Steps int
}

// add folds one priced breakdown into the account. Callers nil-check the
// receiver at the call site so the disabled path stays branch-only.
func (a *PhaseAccount) add(b *Breakdown) {
	a.Vision += b.VisionTime
	a.Linear += b.LinearTime
	a.Attn += b.AttnTime
	a.Pred += b.PredExposed
	a.Fetch += b.FetchExposed
	a.Steps++
}

// Total returns the accounted device time (equals the sum of every priced
// Breakdown.Total, since the buckets partition it).
func (a *PhaseAccount) Total() float64 {
	return a.Vision + a.Linear + a.Attn + a.Pred + a.Fetch
}
