package hwsim

import "sort"

// Resource identifies an execution engine in the pipeline simulation.
type Resource int

const (
	// ResCompute is the main compute engine (GPU SMs / LXE).
	ResCompute Resource = iota
	// ResLink is the PCIe/SSD fetch path.
	ResLink
	// ResDRE is the dynamic retrieval engine (V-Rex only).
	ResDRE
)

func (r Resource) String() string {
	switch r {
	case ResCompute:
		return "compute"
	case ResLink:
		return "link"
	case ResDRE:
		return "dre"
	default:
		return "?"
	}
}

// PipelineEvent is one scheduled task in the per-layer timeline.
type PipelineEvent struct {
	Layer int
	Kind  string // "pred", "fetch", "attn+ffn"
	Res   Resource
	Start float64
	End   float64
}

// PipelineResult is the outcome of the event-driven layer pipeline.
type PipelineResult struct {
	Events []PipelineEvent
	// Total is the end-to-end makespan.
	Total float64
	// Busy is per-resource busy time.
	Busy map[Resource]float64
}

// SimulatePipeline runs the Fig. 5 decoder-layer pipeline as a discrete-event
// schedule instead of the closed-form overlap formula of Sim.Chunk: per
// layer, KV prediction must finish before that layer's fetch is issued, the
// fetch must land before the layer's attention runs, and each resource
// serves one task at a time. Prediction for layer l+1 is issued during layer
// l (prefetching), on the GPU (serialising with compute) or on the DRE
// (concurrent). It returns the schedule for inspection (the Fig. 5 diagrams)
// and cross-validates the analytic model (TestPipelineMatchesClosedForm).
func (s *Sim) SimulatePipeline(n, kvLen, batch int) PipelineResult {
	layers := s.LLM.Layers
	b := s.Chunk(n, kvLen, batch, StageFramePhase)
	res := PipelineResult{Busy: map[Resource]float64{}}
	if b.OOM || layers == 0 {
		return res
	}
	// Per-layer task durations from the aggregate breakdown.
	perCompute := (b.LinearTime + b.AttnTime) / float64(layers)
	perFetch := b.FetchRaw / float64(layers)
	perPred := b.PredRaw / float64(layers)

	var computeFree, linkFree, dreFree float64
	fetchDone := make([]float64, layers)
	predDone := make([]float64, layers)

	add := func(layer int, kind string, r Resource, start, dur float64) float64 {
		end := start + dur
		res.Events = append(res.Events, PipelineEvent{Layer: layer, Kind: kind, Res: r, Start: start, End: end})
		res.Busy[r] += dur
		return end
	}

	// schedPred schedules layer l's prediction (GPU: serialises on the
	// compute engine; V-Rex: runs on the DRE) and returns its end time.
	schedPred := func(l int) {
		if perPred <= 0 {
			return
		}
		if s.Pol.PredOnDevice {
			predDone[l] = add(l, "pred", ResCompute, computeFree, perPred)
			computeFree = predDone[l]
		} else {
			predDone[l] = add(l, "pred", ResDRE, dreFree, perPred)
			dreFree = predDone[l]
		}
	}
	// schedFetch schedules layer l's fetch after its prediction.
	schedFetch := func(l int) {
		if perFetch <= 0 {
			return
		}
		start := linkFree
		if predDone[l] > start {
			start = predDone[l]
		}
		fetchDone[l] = add(l, "fetch", ResLink, start, perFetch)
		linkFree = fetchDone[l]
	}

	// Prologue: layer 0 has no earlier compute to hide behind.
	schedPred(0)
	schedFetch(0)
	for l := 0; l < layers; l++ {
		if s.Pol.PrefetchOverlap && l+1 < layers {
			// Prefetching (Fig. 5 ii/iii): issue the next layer's
			// prediction, then let its fetch ride the link while this
			// layer computes.
			schedPred(l + 1)
			schedFetch(l + 1)
		}
		start := computeFree
		if fetchDone[l] > start {
			start = fetchDone[l]
		}
		computeFree = add(l, "attn+ffn", ResCompute, start, perCompute)
		if !s.Pol.PrefetchOverlap && l+1 < layers {
			// Vanilla (Fig. 5 i): next layer's fetch only starts after this
			// layer's compute finished.
			if computeFree > linkFree {
				linkFree = computeFree
			}
			schedPred(l + 1)
			schedFetch(l + 1)
		}
	}
	res.Total = computeFree
	for _, e := range res.Events {
		if e.End > res.Total {
			res.Total = e.End
		}
	}
	sort.Slice(res.Events, func(i, j int) bool { return res.Events[i].Start < res.Events[j].Start })
	return res
}
