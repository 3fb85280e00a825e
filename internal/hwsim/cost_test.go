package hwsim

import (
	"fmt"
	"math"
	"testing"
)

// refSim is a test-local copy of the cost model as it priced before the
// spec-only terms were derived once per call: every stream re-derives the KV
// width, quantisation factor, reuse and examine fraction, and every step
// re-derives the weight read. The pricing entry points must match it bit for
// bit.
type refSim struct{ *Sim }

type refCost struct {
	resident                                  float64
	streams, frames, rows                     int
	attnFLOPs, attnBytes                      float64
	predDense, predIrregular, topkLaunch, dre float64
	fetchBytes                                float64
	fetchSegs                                 int
}

func refQuantFactor(p PolicyModel) float64 {
	if p.KVQuantBits <= 0 || p.KVQuantBits >= 16 {
		return 1
	}
	return float64(p.KVQuantBits) / 16
}

func refRatio(p PolicyModel, stage StageKind) float64 {
	if stage == StageFramePhase {
		return p.FrameRatio
	}
	return p.TextRatio
}

// refLayerLinearFLOPs, refLayerKVBytes and refPredFLOPs are the LLMSpec
// formulas as the reference priced with them, each deriving the KV width
// itself, so a reordered product in llmspec.go fails the comparison too.
func refLayerLinearFLOPs(s LLMSpec, n int) float64 {
	d := float64(s.Dim)
	kv := float64(s.KVDim())
	f := float64(s.FFNDim)
	nn := float64(n)
	qkvo := 2 * nn * d * (d + 2*kv + d)
	ffn := 2 * nn * d * f * 3
	return qkvo + ffn
}

func refLayerKVBytes(s LLMSpec, attended int) float64 {
	return 2 * float64(attended) * float64(s.KVDim()) * s.BytesPerElem
}

func refPredFLOPs(s LLMSpec, n, cand int) float64 {
	return 2*float64(n)*float64(cand)*float64(s.KVDim()) + 4*float64(n)*float64(cand)
}

func refScale(r StepReq) float64 {
	if r.RatioScale == 0 {
		return 1
	}
	return r.RatioScale
}

func (s refSim) newCost() refCost {
	return refCost{resident: s.LLM.WeightBytes()}
}

func (s refSim) addResident(c *refCost, kvLen, batch int, scale float64) {
	c.streams += batch
	kvBytes := s.LLM.KVBytesPerToken() * float64(kvLen) * float64(batch) * refQuantFactor(s.Pol)
	if s.Pol.Offloads {
		c.resident += kvBytes * s.Pol.FrameRatio * scale * 2 / float64(s.LLM.Layers)
	} else {
		c.resident += kvBytes
	}
}

func (s refSim) oom(c *refCost) bool {
	return c.resident+(kvWorkspaceBytes+0.1e9*float64(c.streams)) > s.Dev.MemCapacity
}

func (s refSim) fetchSegments(kvLen, batch int, ratio float64) int {
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

func (s refSim) addStream(c *refCost, n, kvLen, batch int, stage StageKind, scale float64) {
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
	ratio := refRatio(s.Pol, stage) * scale
	attended := int(ratio*float64(kvLen)+0.5) + n

	c.attnFLOPs += s.LLM.LayerAttnFLOPs(n, attended) * float64(batch) * layers
	c.attnBytes += refLayerKVBytes(s.LLM, attended) * float64(batch) * layers * refQuantFactor(s.Pol)

	cand := float64(kvLen)
	if s.Pol.ClusterCompression > 1 {
		cand /= s.Pol.ClusterCompression
	}
	nCand := int(cand + 0.5)
	c.predDense += refPredFLOPs(s.LLM, rows, nCand) * layers
	switch s.Pol.Pred {
	case PredTopK:
		c.predIrregular += 8 * float64(rows) * cand * layers
		c.topkLaunch += float64(rows) * (60e-6 + cand*0.5e-9) * layers
	case PredReSV:
		hamOps := float64(rows) * cand * defaultNHp / 8
		wicOps := 6 * float64(rows*s.LLM.Heads) * cand * wtuExamineFr
		c.predIrregular += (hamOps + wicOps) * layers
	case PredNone:
	}
	if s.Pol.Pred != PredNone && !s.Pol.PredOnDevice {
		cyc := DRECycles{
			HCU:  HCUCycles(rows, nCand, defaultNHp, s.Dev.Cores),
			WTU:  WTUCycles(rows*s.LLM.Heads, nCand, s.Dev.Cores, wtuExamineFr),
			KVMU: KVMUCycles(rows, s.fetchSegments(kvLen, batch, ratio)),
		}
		c.dre += DRETime(cyc, s.Dev.Freq) * layers
	}

	if s.Pol.Offloads && kvLen > 0 {
		reuse := min(max(s.Pol.ResidentReuse, 0), 1)
		fetchTokens := ratio * (1 - reuse) * float64(kvLen) * float64(batch) * layers
		c.fetchBytes += fetchTokens * 2 * float64(s.LLM.KVDim()) * s.LLM.BytesPerElem * refQuantFactor(s.Pol)
		c.fetchSegs += int(float64(s.fetchSegments(kvLen, batch, ratio)) * (1 - reuse) * layers)
	}
}

func (s refSim) rooflineTime(flops, eff, bytes float64) float64 {
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

func (s refSim) energy(b Breakdown) float64 {
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

func (s refSim) price(c *refCost) Breakdown {
	var b Breakdown
	if c.streams == 0 {
		return b
	}
	if s.oom(c) {
		b.OOM = true
		return b
	}
	layers := float64(s.LLM.Layers)

	linFLOPs := refLayerLinearFLOPs(s.LLM, c.rows) * layers
	linBytes := s.LLM.LayerWeightBytes() * layers
	b.LinearTime = s.rooflineTime(linFLOPs, s.Dev.DenseEff, linBytes)
	b.AttnTime = s.rooflineTime(c.attnFLOPs, s.Dev.AttnEff, c.attnBytes)
	b.UsefulFLOPs = linFLOPs + c.attnFLOPs

	if s.Pol.Pred != PredNone {
		if s.Pol.PredOnDevice {
			irr := c.predIrregular / (s.Dev.PeakFLOPS * s.Dev.IrregularEff)
			if s.Pol.Pred == PredTopK {
				irr += c.topkLaunch
			}
			if s.Pol.Pred == PredReSV {
				irr = c.predIrregular / gpuSerialOpsPerSec
			}
			b.PredRaw = c.predDense/(s.Dev.PeakFLOPS*s.Dev.DenseEff) + irr
			b.PredExposed = b.PredRaw
		} else {
			lxe := c.predDense / (s.Dev.PeakFLOPS * s.Dev.DenseEff)
			b.DRETime = c.dre
			b.PredRaw = lxe + c.dre
			b.PredExposed = lxe
			if over := c.dre - (b.LinearTime + b.AttnTime); over > 0 {
				b.PredExposed += over
			}
		}
	}

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
			cover := b.LinearTime + b.AttnTime + b.PredExposed
			if b.FetchRaw > cover {
				b.FetchExposed = b.FetchRaw - cover
			}
		} else {
			b.FetchExposed = b.FetchRaw
		}
	}

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

func (s refSim) step(reqs []StepReq) Breakdown {
	c := s.newCost()
	for _, r := range reqs {
		s.addStream(&c, r.NewTokens, r.KVLen, 1, r.Stage, refScale(r))
	}
	return s.price(&c)
}

func (s refSim) chunk(n, kvLen, batch int, stage StageKind) Breakdown {
	c := s.newCost()
	s.addStream(&c, n, kvLen, batch, stage, 1)
	return s.price(&c)
}

func (s refSim) oomReq(r StepReq) bool {
	c := s.newCost()
	s.addResident(&c, r.KVLen, 1, refScale(r))
	return s.oom(&c)
}

// query is the serving engine's query loop as it was: one one-request step
// for the prefill, then one per answer token as the cache grows.
func (s refSim) query(r StepReq, answer int) float64 {
	reqs := []StepReq{r}
	total := s.step(reqs).Total
	kv := r.KVLen + r.NewTokens
	reqs[0].NewTokens = 1
	for i := 0; i < answer; i++ {
		reqs[0].KVLen = kv
		total += s.step(reqs).Total
		kv++
	}
	return total
}

// oddLLM is a backbone whose shape constants are not powers of two. Every
// Llama-3 8B constant is one, so there a reassociated byte or FLOP product
// can round exactly like the original; here it does not.
func oddLLM() LLMSpec {
	return LLMSpec{Layers: 30, Dim: 4000, Heads: 25, KVHeads: 5, FFNDim: 10000, Vocab: 50000, BytesPerElem: 1.5}
}

func presetDevices() []DeviceSpec { return []DeviceSpec{AGXOrin(), A100(), VRex8(), VRex48()} }

func presetPolicies() []PolicyModel {
	var pols []PolicyModel
	for _, name := range PolicyModelNames() {
		p, err := ParsePolicy(name)
		if err != nil {
			panic(err)
		}
		pols = append(pols, p)
	}
	return pols
}

// TestCostModelMatchesReference pins Step, Chunk, OOM and Query to the
// test-local copy of the cost model: every Breakdown equal under ==, every
// Query total equal, and the phase account equal field by field after each
// call. It covers every preset device and policy, both LLM shapes, cache
// lengths on both sides of each configuration's memory limit, and budget
// scales below, at and above 1.
func TestCostModelMatchesReference(t *testing.T) {
	type setup struct {
		name string
		sim  *Sim
	}
	var setups []setup
	for _, llm := range []LLMSpec{Llama3_8B(), oddLLM()} {
		for _, dev := range presetDevices() {
			for _, pol := range presetPolicies() {
				sim := NewSim(dev, llm, pol)
				setups = append(setups, setup{fmt.Sprintf("%s+%s/d%d", dev.Name, pol.Name, llm.Dim), sim})
			}
		}
	}
	// One vision-free simulator exercises the remaining Sim field.
	novis := NewSim(AGXOrin(), Llama3_8B(), InfiniGenPModel())
	novis.VisionCost = nil
	setups = append(setups, setup{"novision", novis})

	stages := []StageKind{StageFramePhase, StageTextPhase}
	for _, st := range setups {
		var got, want PhaseAccount
		sim := *st.sim
		sim.Phases = &got
		refCopy := *st.sim
		refCopy.Phases = &want
		ref := refSim{&refCopy}
		checkAccount := func(what string) {
			t.Helper()
			if got != want {
				t.Fatalf("%s %s: phase account %+v, reference %+v", st.name, what, got, want)
			}
		}
		for _, scale := range []float64{0, 0.49, 1, 1.7} {
			limit := firstOOM(&sim, scale)
			if refLimit := refFirstOOM(ref, scale); refLimit != limit {
				t.Fatalf("%s scale %g: memory limit %d tokens, reference %d", st.name, scale, limit, refLimit)
			}
			for _, kv := range []int{0, 1, 777, 40000, limit - 1, limit, limit + 1} {
				for _, stage := range stages {
					for _, n := range []int{0, 25} {
						r := StepReq{NewTokens: n, KVLen: kv, Stage: stage, RatioScale: scale}
						what := fmt.Sprintf("%+v", r)
						if g, w := sim.OOM(r), ref.oomReq(r); g != w {
							t.Fatalf("%s %s: OOM %v, reference %v", st.name, what, g, w)
						}
						if g, w := sim.Step([]StepReq{r}), ref.step([]StepReq{r}); g != w {
							t.Fatalf("%s %s: Step\n%+v\nreference\n%+v", st.name, what, g, w)
						}
						checkAccount("Step " + what)
						mixed := []StepReq{r, {NewTokens: 10, KVLen: 20000, Stage: StageFramePhase, RatioScale: 0.7}, {NewTokens: 1, KVLen: kv / 2, Stage: StageTextPhase}}
						if g, w := sim.Step(mixed), ref.step(mixed); g != w {
							t.Fatalf("%s %s: batched Step\n%+v\nreference\n%+v", st.name, what, g, w)
						}
						checkAccount("batched Step " + what)
						if scale == 0 {
							for _, batch := range []int{1, 3} {
								if g, w := sim.Chunk(n, kv, batch, stage), ref.chunk(n, kv, batch, stage); g != w {
									t.Fatalf("%s %s batch %d: Chunk\n%+v\nreference\n%+v", st.name, what, batch, g, w)
								}
								checkAccount("Chunk " + what)
							}
						}
						for _, answer := range []int{0, 1, 39} {
							if g, w := sim.Query(r, answer), ref.query(r, answer); g != w {
								t.Fatalf("%s %s answer %d: Query %v, reference %v", st.name, what, answer, g, w)
							}
							checkAccount(fmt.Sprintf("Query %s answer %d", what, answer))
						}
					}
				}
			}
		}
		if got.Steps == 0 {
			t.Fatalf("%s: nothing priced", st.name)
		}
	}
}

// refFirstOOM is firstOOM over the reference admission check.
func refFirstOOM(ref refSim, b float64) int {
	lo, hi := 0, 1<<30
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if ref.oomReq(StepReq{KVLen: mid, RatioScale: b}) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}
