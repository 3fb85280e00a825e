package hwsim

import "math"

// The cost model. Every priced chunk and step — Chunk, Step and each step of
// Query — derives the spec-only terms once per call, folds its streams into
// one stepCost with addStream and turns it into a Breakdown with price; the
// OOM admission check prices just the resident footprint with residentKV
// and oom. The per-stream and per-step FLOP and byte formulas are LLMSpec's
// (llmspec.go), called with the KV width derived once per call, so each
// formula lives in one place and a derived term is the same bits as the
// value it replaces.
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

// terms holds the cost model's spec-only terms: what it derives from the
// LLM shape and the policy alone. Each pricing call (Chunk, Step, Query)
// derives them once on its stack and shares them across its streams and
// steps. They are not cached on Sim, whose fields callers may change between
// calls.
type terms struct {
	layers float64
	// kvDim is LLMSpec.KVDim, passed to LLMSpec's per-stream and per-step
	// formulas.
	kvDim float64
	// weightBytes and kvBytesPerToken are LLMSpec.WeightBytes and
	// LLMSpec.KVBytesPerToken; quant is the policy's KV storage factor.
	weightBytes, kvBytesPerToken, quant float64
	// linBytes is a step's weight read over every linear layer.
	linBytes float64
	// reuse is the policy's ResidentReuse clamped to [0, 1].
	reuse float64
}

// terms derives the spec-only terms for one pricing call.
//
//vrex:noalloc
func (s *Sim) terms() terms {
	layers := float64(s.LLM.Layers)
	return terms{
		layers:          layers,
		kvDim:           float64(s.LLM.KVDim()),
		weightBytes:     s.LLM.WeightBytes(),
		kvBytesPerToken: s.LLM.KVBytesPerToken(),
		quant:           s.Pol.quantFactor(),
		linBytes:        s.LLM.LayerWeightBytes() * layers,
		reuse:           min(max(s.Pol.ResidentReuse, 0), 1),
	}
}

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

// residentKV returns the device-memory footprint of batch streams' KV, each
// with a kvLen-token cache of perToken bytes per token at storage factor
// quant. An offloading policy keeps only the fetched working set resident
// (double-buffered); scale multiplies its fetch ratio. OOM and addStream
// share it, so admission and pricing agree on what fits.
//
//vrex:noalloc
func (s *Sim) residentKV(perToken, quant float64, kvLen, batch int, scale float64) float64 {
	kvBytes := perToken * float64(kvLen) * float64(batch) * quant
	if s.Pol.Offloads {
		return kvBytes * s.Pol.FrameRatio * scale * 2 / float64(s.LLM.Layers)
	}
	return kvBytes
}

// oom reports whether a resident footprint across streams streams, plus
// activations and workspace (~2 GB, growing mildly with the stream count),
// exceeds device memory.
//
//vrex:noalloc
func (s *Sim) oom(resident float64, streams int) bool {
	return resident+(kvWorkspaceBytes+0.1e9*float64(streams)) > s.Dev.MemCapacity
}

// addStream folds batch streams into c, each with n new tokens attending to
// its own kvLen-token cache at the given stage. scale multiplies the
// policy's fetch ratio for these streams (the degradation plane's retrieval
// budget; 1 is unscaled). Streams with no new tokens add nothing.
//
//vrex:noalloc
func (s *Sim) addStream(t *terms, c *stepCost, n, kvLen, batch int, stage StageKind, scale float64) {
	if n <= 0 || batch <= 0 {
		return
	}
	p := &s.Pol
	c.streams += batch
	c.resident += s.residentKV(t.kvBytesPerToken, t.quant, kvLen, batch, scale)
	rows := n * batch
	c.rows += rows
	if stage == StageFramePhase {
		c.frames += batch
	}
	ratio := p.ratio(stage) * scale
	attended := int(ratio*float64(kvLen)+0.5) + n

	// Attention stays per stream: each stream reads its own cache.
	c.attnFLOPs += s.LLM.LayerAttnFLOPs(n, attended) * float64(batch) * t.layers
	c.attnBytes += s.LLM.layerKVBytes(attended, t.kvDim) * float64(batch) * t.layers * t.quant

	// --- KV prediction ---
	cand := float64(kvLen)
	if p.ClusterCompression > 1 {
		cand /= p.ClusterCompression
	}
	nCand := int(cand + 0.5)
	c.predDense += predFLOPs(rows, nCand, t.kvDim) * t.layers
	switch p.Pred {
	case PredTopK:
		// GPU top-k: score pass is dense; the sort/selection pass touches
		// every candidate with data-dependent control flow, one fixed-launch
		// plus element-linear sort kernel per query row per layer.
		c.predIrregular += 8 * float64(rows) * cand * t.layers
		c.topkLaunch += float64(rows) * (60e-6 + cand*0.5e-9) * t.layers
	case PredReSV:
		// Hamming clustering (bit ops over clusters) + WiCSum thresholding.
		hamOps := float64(rows) * cand * defaultNHp / 8
		wicOps := 6 * float64(rows*s.LLM.Heads) * cand * wtuExamineFr
		c.predIrregular += (hamOps + wicOps) * t.layers
	case PredNone:
		// no prediction pass: nothing irregular to charge
	}
	segs := s.fetchSegments(kvLen, batch, ratio)
	if p.Pred != PredNone && !p.PredOnDevice {
		// DRE path: clustering + thresholding run on HCU/WTU concurrently.
		cyc := DRECycles{
			HCU:  HCUCycles(rows, nCand, defaultNHp, s.Dev.Cores),
			WTU:  WTUCycles(rows*s.LLM.Heads, nCand, s.Dev.Cores, wtuExamineFr),
			KVMU: KVMUCycles(rows, segs),
		}
		c.dre += DRETime(cyc, s.Dev.Freq) * t.layers
	}

	// --- KV fetch: the selected tokens cross the link for each cache ---
	if p.Offloads && kvLen > 0 {
		fetchTokens := ratio * (1 - t.reuse) * float64(kvLen) * float64(batch) * t.layers
		c.fetchBytes += fetchTokens * 2 * t.kvDim * s.LLM.BytesPerElem * t.quant
		c.fetchSegs += int(float64(segs) * (1 - t.reuse) * t.layers)
	}
}

// price writes an accumulated step's Breakdown into b: the OOM check, the
// roofline kernel times, the Fig. 5 overlap of prediction and fetch with
// compute, the vision tower, energy, and the phase account. A step with no
// streams costs nothing; an OOM step reports OOM with no cost.
//
//vrex:noalloc
func (s *Sim) price(t *terms, c *stepCost, b *Breakdown) {
	*b = Breakdown{}
	if c.streams == 0 {
		return
	}
	if s.oom(c.resident, c.streams) {
		b.OOM = true
		return
	}
	p := &s.Pol

	// Linear layers: FLOPs scale with the step's total new tokens, but the
	// weights are read once for everyone — the step's amortised cost.
	linFLOPs := s.LLM.layerLinearFLOPs(c.rows, t.kvDim) * t.layers
	b.LinearTime = s.rooflineTime(linFLOPs, s.Dev.DenseEff, t.linBytes)
	b.AttnTime = s.rooflineTime(c.attnFLOPs, s.Dev.AttnEff, c.attnBytes)
	b.UsefulFLOPs = linFLOPs + c.attnFLOPs

	// --- KV prediction ---
	if p.Pred != PredNone {
		if p.PredOnDevice {
			irr := c.predIrregular / (s.Dev.PeakFLOPS * s.Dev.IrregularEff)
			if p.Pred == PredTopK {
				irr += c.topkLaunch
			}
			if p.Pred == PredReSV {
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
		if p.PrefetchOverlap {
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
		s.Phases.add(b)
	}
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
func (s *Sim) energy(b *Breakdown) float64 {
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
