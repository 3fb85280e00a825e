package hwsim

import "math"

// The cost model. Every priced chunk and step — Chunk, Step and the OOM
// admission check — folds its streams into one stepCost with addStream (or,
// for OOM, just the resident term with addResident) and turns it into a
// Breakdown with price. A pricing change is therefore one edit here.
//
// Cost structure — the per-step vs per-stream split that makes batching pay:
//
//   - Per stream (addStream, summed over the step's streams): attention
//     FLOPs and KV bytes against the stream's own cache, KV prediction, DRE
//     cycles, KV fetch traffic, and the stream's resident KV working set.
//   - Per step (price, charged once and amortised across the batch): the
//     weight read of every linear layer, the vision tower's weight traffic,
//     the fixed host-side frame overhead (decode/resize for co-batched frames
//     pipeline on host cores while the accelerator runs), the Fig. 5 overlap
//     of prediction and fetch with compute, and energy.

// stepCost accumulates the per-stream terms of one priced step. It lives on
// the caller's stack, so pricing allocates nothing.
type stepCost struct {
	// resident is the device-memory footprint so far: model weights plus
	// each stream's KV working set (oom adds the activation workspace).
	resident float64
	// streams counts the streams folded in, frames those at the frame stage
	// (each is charged the vision tower), and rows their new tokens.
	streams, frames, rows int
	attnFLOPs, attnBytes  float64
	// predDense is the Q x K_cluster^T score work; predIrregular the
	// clustering, sorting and thresholding ops; topkLaunch the per-row GPU
	// sort-kernel time; dre the DRE busy time.
	predDense, predIrregular, topkLaunch, dre float64
	fetchBytes                                float64
	fetchSegs                                 int
}

// newCost starts a step: the model weights are resident once, whatever the
// batch.
func (s *Sim) newCost() stepCost {
	return stepCost{resident: s.LLM.WeightBytes()}
}

// addResident folds the device-memory footprint of batch streams, each with
// a kvLen-token cache, into c. An offloading policy keeps only the fetched
// working set resident (double-buffered); scale multiplies its fetch ratio.
//
//vrex:noalloc
func (s *Sim) addResident(c *stepCost, kvLen, batch int, scale float64) {
	c.streams += batch
	kvBytes := s.LLM.KVBytesPerToken() * float64(kvLen) * float64(batch) * s.Pol.quantFactor()
	if s.Pol.Offloads {
		c.resident += kvBytes * s.Pol.FrameRatio * scale * 2 / float64(s.LLM.Layers)
	} else {
		c.resident += kvBytes
	}
}

// oom reports whether c's resident footprint, plus activations and workspace
// (~2 GB, growing mildly with the stream count), exceeds device memory.
//
//vrex:noalloc
func (s *Sim) oom(c *stepCost) bool {
	return c.resident+(kvWorkspaceBytes+0.1e9*float64(c.streams)) > s.Dev.MemCapacity
}

// addStream folds batch streams into c, each with n new tokens attending to
// its own kvLen-token cache at the given stage. scale multiplies the
// policy's fetch ratio for these streams (the degradation plane's retrieval
// budget; 1 is unscaled). Streams with no new tokens add nothing.
//
//vrex:noalloc
func (s *Sim) addStream(c *stepCost, n, kvLen, batch int, stage StageKind, scale float64) {
	if n <= 0 || batch <= 0 {
		return
	}
	s.addResident(c, kvLen, batch, scale)
	layers := float64(s.LLM.Layers)
	rows := n * batch
	c.rows += rows
	if stage == StageFramePhase {
		c.frames += batch
	}
	ratio := s.Pol.ratio(stage) * scale
	attended := int(ratio*float64(kvLen)+0.5) + n

	// Attention stays per stream: each stream reads its own cache.
	c.attnFLOPs += s.LLM.LayerAttnFLOPs(n, attended) * float64(batch) * layers
	c.attnBytes += s.LLM.LayerKVBytes(attended) * float64(batch) * layers * s.Pol.quantFactor()

	// --- KV prediction ---
	cand := float64(kvLen)
	if s.Pol.ClusterCompression > 1 {
		cand /= s.Pol.ClusterCompression
	}
	nCand := int(cand + 0.5)
	c.predDense += s.LLM.PredFLOPs(rows, nCand) * layers
	switch s.Pol.Pred {
	case PredTopK:
		// GPU top-k: score pass is dense; the sort/selection pass touches
		// every candidate with data-dependent control flow, one fixed-launch
		// plus element-linear sort kernel per query row per layer.
		c.predIrregular += 8 * float64(rows) * cand * layers
		c.topkLaunch += float64(rows) * (60e-6 + cand*0.5e-9) * layers
	case PredReSV:
		// Hamming clustering (bit ops over clusters) + WiCSum thresholding.
		hamOps := float64(rows) * cand * defaultNHp / 8
		wicOps := 6 * float64(rows*s.LLM.Heads) * cand * wtuExamineFraction(s.ExamineFraction)
		c.predIrregular += (hamOps + wicOps) * layers
	case PredNone:
		// no prediction pass: nothing irregular to charge
	}
	if s.Pol.Pred != PredNone && !s.Pol.PredOnDevice {
		// DRE path: clustering + thresholding run on HCU/WTU concurrently.
		cyc := DRECycles{
			HCU: HCUCycles(rows, nCand, defaultNHp, s.Dev.Cores),
			WTU: WTUCycles(rows*s.LLM.Heads, nCand, s.Dev.Cores,
				wtuExamineFraction(s.ExamineFraction)),
			KVMU: KVMUCycles(rows, s.fetchSegments(kvLen, batch, ratio)),
		}
		c.dre += DRETime(cyc, s.Dev.Freq) * layers
	}

	// --- KV fetch: the selected tokens cross the link for each cache ---
	if s.Pol.Offloads && kvLen > 0 {
		reuse := min(max(s.Pol.ResidentReuse, 0), 1)
		fetchTokens := ratio * (1 - reuse) * float64(kvLen) * float64(batch) * layers
		c.fetchBytes += fetchTokens * 2 * float64(s.LLM.KVDim()) * s.LLM.BytesPerElem * s.Pol.quantFactor()
		c.fetchSegs += int(float64(s.fetchSegments(kvLen, batch, ratio)) * (1 - reuse) * layers)
	}
}

// price turns an accumulated step into its Breakdown: the OOM check, the
// roofline kernel times, the Fig. 5 overlap of prediction and fetch with
// compute, the vision tower, energy, and the phase account. A step with no
// streams costs nothing; an OOM step reports OOM with no cost.
//
//vrex:noalloc
func (s *Sim) price(c *stepCost) Breakdown {
	var b Breakdown
	if c.streams == 0 {
		return b
	}
	if s.oom(c) {
		b.OOM = true
		return b
	}
	layers := float64(s.LLM.Layers)

	// Linear layers: FLOPs scale with the step's total new tokens, but the
	// weights are read once for everyone — the step's amortised cost.
	linFLOPs := s.LLM.LayerLinearFLOPs(c.rows) * layers
	linBytes := s.LLM.LayerWeightBytes() * layers
	b.LinearTime = s.rooflineTime(linFLOPs, s.Dev.DenseEff, linBytes)
	b.AttnTime = s.rooflineTime(c.attnFLOPs, s.Dev.AttnEff, c.attnBytes)
	b.UsefulFLOPs = linFLOPs + c.attnFLOPs

	// --- KV prediction ---
	if s.Pol.Pred != PredNone {
		if s.Pol.PredOnDevice {
			irr := c.predIrregular / (s.Dev.PeakFLOPS * s.Dev.IrregularEff)
			if s.Pol.Pred == PredTopK {
				irr += c.topkLaunch
			}
			if s.Pol.Pred == PredReSV {
				// ReSV's clustering/thresholding is conditional and
				// data-dependent (Sec. V): on a GPU it serialises into
				// latency-bound chains instead of wide kernels. Top-k, by
				// contrast, is a "computationally regular and GPU-friendly
				// primitive" (Sec. I) and keeps the parallel rate above.
				irr = c.predIrregular / gpuSerialOpsPerSec
			}
			b.PredRaw = c.predDense/(s.Dev.PeakFLOPS*s.Dev.DenseEff) + irr
			// Prediction shares the device with LLM kernels: fully exposed.
			b.PredExposed = b.PredRaw
		} else {
			// DRE path: Q x K_cluster^T runs on the LXE (dense, cheap) and is
			// exposed; DRE work overlaps with attention+FFN and is exposed
			// only if it exceeds them.
			lxe := c.predDense / (s.Dev.PeakFLOPS * s.Dev.DenseEff)
			b.DRETime = c.dre
			b.PredRaw = lxe + c.dre
			b.PredExposed = lxe
			if over := c.dre - (b.LinearTime + b.AttnTime); over > 0 {
				b.PredExposed += over
			}
		}
	}

	// --- KV fetch ---
	if c.fetchBytes > 0 {
		b.FetchBytes = c.fetchBytes
		linkTime := s.Dev.Link.TransferTime(c.fetchBytes, c.fetchSegs)
		if s.Dev.OffloadSSD != nil {
			if st := s.Dev.OffloadSSD.ReadTime(c.fetchBytes, c.fetchSegs); st > linkTime {
				linkTime = st
			}
		}
		b.FetchRaw = linkTime
		if s.Pol.PrefetchOverlap {
			// Prefetch overlap (Fig. 5 ii/iii): fetch for layer l+1 overlaps
			// layer l compute (+ exposed on-device prediction).
			cover := b.LinearTime + b.AttnTime + b.PredExposed
			if b.FetchRaw > cover {
				b.FetchExposed = b.FetchRaw - cover
			}
		} else {
			// Vanilla serial load (Fig. 5 i).
			b.FetchExposed = b.FetchRaw
		}
	}

	// --- Vision tower + host-side frame handling (frame streams only) ---
	if c.frames > 0 && s.VisionCost != nil {
		vf := s.VisionCost.FLOPs * float64(c.frames)
		b.VisionTime = s.rooflineTime(vf, s.Dev.DenseEff, s.VisionCost.WeightBytes)
		b.VisionTime += s.Dev.FrameOverhead
		b.UsefulFLOPs += vf
	}

	b.Total = b.VisionTime + b.LinearTime + b.AttnTime + b.PredExposed + b.FetchExposed
	b.EnergyJ = s.energy(b)
	if s.Phases != nil {
		s.Phases.add(&b)
	}
	return b
}

// rooflineTime returns max(flops-bound, bytes-bound) kernel time.
func (s *Sim) rooflineTime(flops, eff, bytes float64) float64 {
	t := 0.0
	if flops > 0 && eff > 0 {
		t = flops / (s.Dev.PeakFLOPS * eff)
	}
	if bytes > 0 {
		if bt := s.Dev.Mem.AccessTime(bytes); bt > t {
			t = bt
		}
	}
	return t
}

// gpuSerialOpsPerSec is the effective GPU rate on serialised, data-dependent
// operation chains (dependent memory loads, divergent branches, dynamic
// output sizes). Calibrated so ReSV-on-GPU's KV prediction consumes ~48% of
// frame latency at 40K cache (Fig. 16's AGX+ReSV measurement).
const gpuSerialOpsPerSec = 5e7

func wtuExamineFraction(override float64) float64 {
	if override > 0 && override <= 1 {
		return override
	}
	return wtuExamineFr
}

// fetchSegments returns the number of contiguous segments for one layer's
// fetch of ratio*kvLen tokens per stream.
func (s *Sim) fetchSegments(kvLen, batch int, ratio float64) int {
	tokens := ratio * float64(kvLen) * float64(batch)
	if tokens <= 0 {
		return 0
	}
	segTokens := s.Pol.SegmentTokens
	if segTokens < 1 {
		segTokens = 1
	}
	return int(math.Ceil(tokens / segTokens))
}

// energy integrates the component-power model over the chunk's busy times.
func (s *Sim) energy(b Breakdown) float64 {
	active := s.Dev.Power - s.Dev.IdlePower
	if active < 0 {
		active = 0
	}
	computeBusy := b.VisionTime + b.LinearTime + b.AttnTime + b.PredExposed
	e := s.Dev.IdlePower*b.Total + active*computeBusy
	e += s.Dev.Link.Power() * b.FetchRaw
	if s.Dev.OffloadSSD != nil {
		e += s.Dev.OffloadSSD.ActivePower * b.FetchRaw
	}
	e += s.Dev.Mem.AccessEnergy(b.FetchBytes)
	return e
}
