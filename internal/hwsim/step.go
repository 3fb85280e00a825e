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
	// degradation plane's per-session budget scale (Sim.Scaled for the
	// single-stream path). 0 means unscaled (1), so the zero value prices
	// identically to a request without the field.
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
// at the same KV length), each request carries its own cache length and
// stage, which is what a real multi-stream scheduler produces.
//
// Cost structure — the per-step vs per-token split that makes batching pay:
//
//   - Per step (charged once, amortised across the batch): the weight read
//     of every linear layer, the vision tower's weight traffic, and the
//     fixed host-side frame overhead (decode/resize for co-batched frames
//     pipeline on host cores while the accelerator runs).
//   - Per token / per stream (summed over requests): linear FLOPs,
//     attention FLOPs and KV bytes against each stream's own cache, KV
//     prediction, and KV fetch traffic.
//
// A single-request step delegates to Chunk at batch 1, so a batch-1 step
// costs exactly what FrameLatency(n, kv, 1) does for its one stream; the
// multi-request path below mirrors Chunk's per-stream formulas (frame.go) —
// keep the two in sync. Requests with no new tokens are ignored. The caller
// is responsible for per-stream OOM admission (see Sim.OOM); a step whose
// combined resident footprint exceeds device memory reports OOM with no
// cost, like Chunk.
func (s *Sim) Step(reqs []StepReq) Breakdown {
	live := 0
	for _, r := range reqs {
		if r.NewTokens > 0 {
			live++
		}
	}
	var b Breakdown
	if live == 0 {
		return b
	}
	if live == 1 && len(reqs) == 1 {
		r := reqs[0]
		return s.Scaled(r.scale()).Chunk(r.NewTokens, r.KVLen, 1, r.Stage)
	}

	// Combined resident footprint: weights once, each stream's working set,
	// workspace growing mildly with batch (mirrors residentBytes at batch 1
	// per stream).
	resident := s.LLM.WeightBytes()
	for _, r := range reqs {
		if r.NewTokens <= 0 {
			continue
		}
		kvBytes := s.LLM.KVBytesPerToken() * float64(r.KVLen) * s.Pol.quantFactor()
		if s.Pol.Offloads {
			resident += kvBytes * s.Pol.FrameRatio * r.scale() * 2 / float64(s.LLM.Layers)
		} else {
			resident += kvBytes
		}
	}
	resident += 2e9 + 0.1e9*float64(live)
	if resident > s.Dev.MemCapacity {
		b.OOM = true
		return b
	}

	layers := float64(s.LLM.Layers)
	rows := 0
	nFrames := 0
	var attnFLOPs, attnBytes float64
	var predDense, predIrregularOps, topkLaunch, dre float64
	var fetchBytes float64
	fetchSegs := 0
	for _, r := range reqs {
		if r.NewTokens <= 0 {
			continue
		}
		n := r.NewTokens
		rows += n
		if r.Stage == StageFramePhase {
			nFrames++
		}
		ratio := s.Pol.ratio(r.Stage) * r.scale()
		attended := int(ratio*float64(r.KVLen)+0.5) + n

		// Attention stays per stream: each request reads its own cache.
		attnFLOPs += s.LLM.LayerAttnFLOPs(n, attended) * layers
		attnBytes += s.LLM.LayerKVBytes(attended) * layers * s.Pol.quantFactor()

		// KV prediction per stream, mirroring Chunk at batch 1.
		cand := float64(r.KVLen)
		if s.Pol.ClusterCompression > 1 {
			cand /= s.Pol.ClusterCompression
		}
		nCand := int(cand + 0.5)
		predDense += s.LLM.PredFLOPs(n, nCand) * layers
		switch s.Pol.Pred {
		case PredTopK:
			predIrregularOps += 8 * float64(n) * cand * layers
			topkLaunch += float64(n) * (60e-6 + cand*0.5e-9) * layers
		case PredReSV:
			hamOps := float64(n) * cand * defaultNHp / 8
			wicOps := 6 * float64(n*s.LLM.Heads) * cand * wtuExamineFraction(s.ExamineFraction)
			predIrregularOps += (hamOps + wicOps) * layers
		case PredNone:
			// no prediction pass: nothing irregular to charge
		}
		if s.Pol.Pred != PredNone && !s.Pol.PredOnDevice {
			cyc := DRECycles{
				HCU: HCUCycles(n, nCand, defaultNHp, s.Dev.Cores),
				WTU: WTUCycles(n*s.LLM.Heads, nCand, s.Dev.Cores,
					wtuExamineFraction(s.ExamineFraction)),
				KVMU: KVMUCycles(n, s.fetchSegments(r.KVLen, 1, ratio)),
			}
			dre += DRETime(cyc, s.Dev.Freq) * layers
		}

		// KV fetch per stream: selected tokens cross the link for each cache.
		if s.Pol.Offloads && r.KVLen > 0 {
			reuse := s.Pol.ResidentReuse
			if reuse < 0 {
				reuse = 0
			}
			if reuse > 1 {
				reuse = 1
			}
			fetchTokens := ratio * (1 - reuse) * float64(r.KVLen) * layers
			fetchBytes += fetchTokens * 2 * float64(s.LLM.KVDim()) * s.LLM.BytesPerElem * s.Pol.quantFactor()
			fetchSegs += int(float64(s.fetchSegments(r.KVLen, 1, ratio)) * (1 - reuse) * layers)
		}
	}

	// Linear layers: FLOPs scale with the batch's total new tokens, but the
	// weights are read once for everyone — the step's amortised cost.
	linFLOPs := s.LLM.LayerLinearFLOPs(rows) * layers
	linBytes := s.LLM.LayerWeightBytes() * layers
	b.LinearTime = s.rooflineTime(linFLOPs, s.Dev.DenseEff, linBytes)
	b.AttnTime = s.rooflineTime(attnFLOPs, s.Dev.AttnEff, attnBytes)
	b.UsefulFLOPs = linFLOPs + attnFLOPs

	if s.Pol.Pred != PredNone {
		if s.Pol.PredOnDevice {
			irr := predIrregularOps / (s.Dev.PeakFLOPS * s.Dev.IrregularEff)
			if s.Pol.Pred == PredTopK {
				irr += topkLaunch
			}
			if s.Pol.Pred == PredReSV {
				irr = predIrregularOps / gpuSerialOpsPerSec
			}
			b.PredRaw = predDense/(s.Dev.PeakFLOPS*s.Dev.DenseEff) + irr
			b.PredExposed = b.PredRaw
		} else {
			lxe := predDense / (s.Dev.PeakFLOPS * s.Dev.DenseEff)
			b.DRETime = dre
			b.PredRaw = lxe + dre
			b.PredExposed = lxe
			if over := dre - (b.LinearTime + b.AttnTime); over > 0 {
				b.PredExposed += over
			}
		}
	}

	if fetchBytes > 0 {
		b.FetchBytes = fetchBytes
		linkTime := s.Dev.Link.TransferTime(fetchBytes, fetchSegs)
		if s.Dev.OffloadSSD != nil {
			if st := s.Dev.OffloadSSD.ReadTime(fetchBytes, fetchSegs); st > linkTime {
				linkTime = st
			}
		}
		b.FetchRaw = linkTime
		if s.Pol.PrefetchOverlap {
			cover := b.LinearTime + b.AttnTime + b.PredExposed
			if b.FetchRaw > cover {
				b.FetchExposed = b.FetchRaw - cover
			}
		} else {
			b.FetchExposed = b.FetchRaw
		}
	}

	if nFrames > 0 && s.VisionCost != nil {
		vf := s.VisionCost.FLOPs * float64(nFrames)
		b.VisionTime = s.rooflineTime(vf, s.Dev.DenseEff, s.VisionCost.WeightBytes)
		b.VisionTime += s.Dev.FrameOverhead
		b.UsefulFLOPs += vf
	}

	b.Total = b.VisionTime + b.LinearTime + b.AttnTime + b.PredExposed + b.FetchExposed
	b.EnergyJ = s.energy(b)
	if s.Phases != nil {
		// The single-request path above accumulates through Chunk; only the
		// multi-request path records here, so nothing is double counted.
		s.Phases.add(&b)
	}
	return b
}

// OOM reports whether a chunk against kvLen cached tokens at the given batch
// would exceed device memory — the same resident-footprint admission check
// Chunk applies before simulating. The serving scheduler uses it to filter
// batch candidates per stream before pricing the step.
func (s *Sim) OOM(kvLen, batch int) bool {
	return s.residentBytes(kvLen, batch) > s.Dev.MemCapacity
}
