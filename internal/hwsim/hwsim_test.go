package hwsim

import (
	"math"
	"testing"
)

func TestLlama3SpecShapes(t *testing.T) {
	s := Llama3_8B()
	if s.HeadDim() != 128 || s.KVDim() != 1024 {
		t.Fatalf("derived dims wrong: head %d kv %d", s.HeadDim(), s.KVDim())
	}
	// 2 x 32 x 1024 x 2 = 128 KiB per token — the well-known Llama-3 8B
	// figure driving Fig. 4a.
	if s.KVBytesPerToken() != 131072 {
		t.Fatalf("KV bytes/token = %v, want 131072", s.KVBytesPerToken())
	}
	// ~8B params -> ~16GB BF16.
	if s.WeightBytes() < 13e9 || s.WeightBytes() > 19e9 {
		t.Fatalf("weight bytes %v out of 8B-model band", s.WeightBytes())
	}
}

func TestLLMFLOPCountsScale(t *testing.T) {
	s := Llama3_8B()
	if s.LayerLinearFLOPs(2) != 2*s.LayerLinearFLOPs(1) {
		t.Fatal("linear FLOPs must scale with tokens")
	}
	if s.LayerAttnFLOPs(1, 2000) != 2*s.LayerAttnFLOPs(1, 1000) {
		t.Fatal("attention FLOPs must scale with attended length")
	}
	if s.PredFLOPs(10, 100) <= 0 {
		t.Fatal("prediction FLOPs must be positive")
	}
}

func TestDeviceSpecsTable1(t *testing.T) {
	agx, a100 := AGXOrin(), A100()
	v8, v48 := VRex8(), VRex48()
	if agx.PeakFLOPS != 54e12 || a100.PeakFLOPS != 312e12 {
		t.Fatal("GPU peaks don't match Table I")
	}
	// V-Rex8 53.3 TFLOPS, V-Rex48 319.5 TFLOPS (paper rounding).
	if math.Abs(v8.PeakFLOPS-53.3e12) > 1e12 {
		t.Fatalf("V-Rex8 peak %v, want ~53.3T", v8.PeakFLOPS)
	}
	if math.Abs(v48.PeakFLOPS-319.5e12) > 5e12 {
		t.Fatalf("V-Rex48 peak %v, want ~319.5T", v48.PeakFLOPS)
	}
	if v8.Power != 35 || math.Abs(v48.Power-203.68) > 1e-9 {
		t.Fatal("V-Rex power doesn't match Table I")
	}
	if !v8.HasDRE || !v48.HasDRE || agx.HasDRE || a100.HasDRE {
		t.Fatal("DRE flags wrong")
	}
	if agx.OffloadSSD == nil || a100.OffloadSSD != nil {
		t.Fatal("edge offloads to SSD, server to CPU memory")
	}
}

func TestFrameLatencyGrowsWithKV(t *testing.T) {
	sim := NewSim(AGXOrin(), Llama3_8B(), FlexGenModel())
	prev := 0.0
	for _, kv := range []int{1000, 5000, 10000, 20000, 40000} {
		b := sim.FrameLatency(10, kv, 1)
		if b.OOM {
			t.Fatalf("FlexGen offloads; must not OOM at %d", kv)
		}
		if b.Total <= prev {
			t.Fatalf("latency must grow with KV length at %d", kv)
		}
		prev = b.Total
	}
}

func TestVRexFlatterThanGPU(t *testing.T) {
	llm := Llama3_8B()
	gpu := NewSim(AGXOrin(), llm, FlexGenModel())
	vrex := NewSim(VRex8(), llm, ReSVModel())
	g1, g40 := gpu.FrameLatency(10, 1000, 1).Total, gpu.FrameLatency(10, 40000, 1).Total
	v1, v40 := vrex.FrameLatency(10, 1000, 1).Total, vrex.FrameLatency(10, 40000, 1).Total
	if g40/g1 <= v40/v1 {
		t.Fatalf("GPU growth %.1fx should exceed V-Rex growth %.1fx", g40/g1, v40/v1)
	}
	// Fig. 13 speedup shape: grows with KV length, 2-8x at the edge.
	s1, s40 := g1/v1, g40/v40
	if s40 <= s1 {
		t.Fatal("speedup must grow with KV length")
	}
	if s40 < 3 || s40 > 12 {
		t.Fatalf("speedup at 40K = %.1fx, want paper-like 3-12x", s40)
	}
}

func TestVRexRealTimeAt40K(t *testing.T) {
	// Paper: 3.9-8.3 FPS across 1K-40K at batch 1.
	sim := NewSim(VRex8(), Llama3_8B(), ReSVModel())
	for _, kv := range []int{1000, 5000, 10000, 20000, 40000} {
		b := sim.FrameLatency(10, kv, 1)
		if fps := b.FPS(); fps < 2 {
			t.Fatalf("V-Rex8 not real-time at %d: %.1f FPS", kv, fps)
		}
	}
}

func TestTPOTMemoryBound(t *testing.T) {
	// Decode is weight-bandwidth bound: ~16GB / 174GB/s ≈ 92ms on LPDDR5.
	b := NewSim(VRex8(), Llama3_8B(), ReSVModel()).TPOT(1000, 1)
	if b.Total < 0.05 || b.Total > 0.15 {
		t.Fatalf("edge TPOT %v, want 50-150ms (paper: 89-97ms)", b.Total)
	}
	// Server decode ~16GB / 1.6TB/s ≈ 10ms (paper: 14-15ms).
	b48 := NewSim(VRex48(), Llama3_8B(), ReSVModel()).TPOT(1000, 1)
	if b48.Total < 0.005 || b48.Total > 0.03 {
		t.Fatalf("server TPOT %v, want 5-30ms", b48.Total)
	}
}

func TestInfiniGenPrefillSlowerThanFlexGen(t *testing.T) {
	// Sec. VI-B: AGX+InfiniGen(P) are even slower than FlexGen during frame
	// processing due to token-level prediction overhead.
	llm := Llama3_8B()
	fg := NewSim(AGXOrin(), llm, FlexGenModel()).FrameLatency(10, 40000, 1)
	ig := NewSim(AGXOrin(), llm, InfiniGenModel()).FrameLatency(10, 40000, 1)
	if ig.Total <= fg.Total {
		t.Fatalf("InfiniGen prefill %.0fms should exceed FlexGen %.0fms", ig.Total*1000, fg.Total*1000)
	}
}

func TestInfiniGenFastInText(t *testing.T) {
	llm := Llama3_8B()
	fg := NewSim(AGXOrin(), llm, FlexGenModel()).TPOT(40000, 1)
	ig := NewSim(AGXOrin(), llm, InfiniGenModel()).TPOT(40000, 1)
	if ig.Total >= fg.Total {
		t.Fatal("InfiniGen should beat FlexGen at text generation")
	}
}

func TestOOMBehaviourFig15(t *testing.T) {
	llm := Llama3_8B()
	dense := NewSim(AGXOrin(), llm, DenseModel())
	oaken := NewSim(AGXOrin(), llm, OakenModel())
	vrex := NewSim(VRex8(), llm, ReSVModel())
	const batch = 16
	if dense.FrameLatency(10, 5000, batch).OOM {
		t.Fatal("dense should survive 5K")
	}
	if !dense.FrameLatency(10, 10000, batch).OOM {
		t.Fatal("dense should OOM by 10K at batch 16 (paper Fig. 15)")
	}
	if oaken.FrameLatency(10, 20000, batch).OOM {
		t.Fatal("Oaken (4-bit) should survive 20K")
	}
	if !oaken.FrameLatency(10, 40000, batch).OOM {
		t.Fatal("Oaken should OOM by 40K (paper: fails beyond 20K)")
	}
	b := vrex.FrameLatency(10, 40000, batch)
	if b.OOM {
		t.Fatal("V-Rex offloads and must not OOM")
	}
	if fps := float64(batch) / b.Total; fps < 3 {
		t.Fatalf("V-Rex throughput %.1f FPS at 40K, want >= 3 (paper ~7)", fps)
	}
}

func TestDREHiddenUnderCompute(t *testing.T) {
	// Fig. 16: the DRE reduces KV-prediction exposure to ~0.5% of latency.
	b := NewSim(VRex8(), Llama3_8B(), ReSVModel()).FrameLatency(10, 40000, 1)
	if b.PredExposed > 0.05*b.Total {
		t.Fatalf("DRE prediction exposure %.1f%% of total, want < 5%%",
			100*b.PredExposed/b.Total)
	}
	// On GPU the same algorithm's prediction is a large exposed fraction.
	g := NewSim(AGXOrin(), Llama3_8B(), ReSVOnGPUModel()).FrameLatency(10, 40000, 1)
	if g.PredExposed < 5*b.PredExposed {
		t.Fatalf("GPU prediction exposure %v should dwarf DRE %v", g.PredExposed, b.PredExposed)
	}
}

func TestAblationOrderingFig16(t *testing.T) {
	// Cumulative gains: AGX+FlexGen > AGX+ReSV > V-Rex8 KVPU-only > V-Rex8 All.
	llm := Llama3_8B()
	base := NewSim(AGXOrin(), llm, FlexGenModel()).FrameLatency(10, 40000, 1).Total
	gpuResv := NewSim(AGXOrin(), llm, ReSVOnGPUModel()).FrameLatency(10, 40000, 1).Total
	kvpuOnly := ReSVModel()
	kvpuOnly.SegmentTokens = 4 // KVMU disabled: scattered fetches
	vrexKVPU := NewSim(VRex8(), llm, kvpuOnly).FrameLatency(10, 40000, 1).Total
	vrexAll := NewSim(VRex8(), llm, ReSVModel()).FrameLatency(10, 40000, 1).Total
	if !(base > gpuResv && gpuResv > vrexKVPU && vrexKVPU > vrexAll) {
		t.Fatalf("ablation ordering violated: %.0f > %.0f > %.0f > %.0f (ms)",
			base*1000, gpuResv*1000, vrexKVPU*1000, vrexAll*1000)
	}
	if base/gpuResv < 1.3 {
		t.Fatalf("ReSV on GPU should give >= 1.3x, got %.2fx", base/gpuResv)
	}
	if base/vrexAll < 4 {
		t.Fatalf("full V-Rex should give >= 4x (paper 8.1x), got %.2fx", base/vrexAll)
	}
}

func TestEnergyEfficiencyOrdering(t *testing.T) {
	// Fig. 13: V-Rex wins GOPS/W, margin grows with KV length.
	llm := Llama3_8B()
	for _, kv := range []int{1000, 40000} {
		g := NewSim(AGXOrin(), llm, FlexGenModel()).FrameLatency(10, kv, 1)
		v := NewSim(VRex8(), llm, ReSVModel()).FrameLatency(10, kv, 1)
		if v.GOPSPerWatt() <= g.GOPSPerWatt() {
			t.Fatalf("V-Rex efficiency %.1f should beat GPU %.1f at %d",
				v.GOPSPerWatt(), g.GOPSPerWatt(), kv)
		}
	}
	g40 := NewSim(AGXOrin(), llm, FlexGenModel()).FrameLatency(10, 40000, 1)
	v40 := NewSim(VRex8(), llm, ReSVModel()).FrameLatency(10, 40000, 1)
	g1 := NewSim(AGXOrin(), llm, FlexGenModel()).FrameLatency(10, 1000, 1)
	v1 := NewSim(VRex8(), llm, ReSVModel()).FrameLatency(10, 1000, 1)
	if v40.GOPSPerWatt()/g40.GOPSPerWatt() <= v1.GOPSPerWatt()/g1.GOPSPerWatt() {
		t.Fatal("efficiency gain should grow with KV length")
	}
}

func TestHCUCycles(t *testing.T) {
	if HCUCycles(0, 100, 32, 8) != 0 {
		t.Fatal("no tokens -> no cycles")
	}
	c1 := HCUCycles(10, 100, 32, 1)
	c8 := HCUCycles(10, 100, 32, 8)
	if c8 >= c1 {
		t.Fatal("more cores must reduce cycles")
	}
	// 10x100 comparisons x ceil(32/16)=2 cycles = 2000 + 10 update.
	if c1 != 2010 {
		t.Fatalf("HCU cycles = %v, want 2010", c1)
	}
}

func TestWTUCycles(t *testing.T) {
	if WTUCycles(0, 10, 8, 0.16) != 0 || WTUCycles(10, 0, 8, 0.16) != 0 {
		t.Fatal("degenerate inputs -> 0")
	}
	full := WTUCycles(100, 1000, 1, 1.0)
	early := WTUCycles(100, 1000, 1, 0.16)
	if early >= full {
		t.Fatal("early exit must reduce cycles")
	}
	if WTUCycles(100, 1000, 8, 0.16) >= early {
		t.Fatal("more cores must reduce cycles")
	}
}

func TestDRETimeTiny(t *testing.T) {
	// The whole point: DRE per-layer work is microseconds at 800 MHz.
	cyc := DRECycles{
		HCU:  HCUCycles(10, 1250, 32, 8),
		WTU:  WTUCycles(320, 1250, 8, 0.16),
		KVMU: KVMUCycles(10, 400),
	}
	tm := DRETime(cyc, 800e6)
	if tm > 100e-6 {
		t.Fatalf("DRE per-layer time %v, want < 100us", tm)
	}
	if DRETime(cyc, 0) != 0 {
		t.Fatal("zero frequency should yield zero time")
	}
}

func TestTable3Budget(t *testing.T) {
	area, power := CoreTotals()
	if math.Abs(area-1.89) > 0.01 {
		t.Fatalf("core area %v, want 1.89 mm^2", area)
	}
	if math.Abs(power-2609.43) > 0.5 {
		t.Fatalf("core power %v, want ~2609 mW", power)
	}
	af, pf := DREShare()
	if af < 0.015 || af > 0.025 {
		t.Fatalf("DRE area share %v, want ~2%%", af)
	}
	if pf < 0.015 || pf > 0.03 {
		t.Fatalf("DRE power share %v, want ~2.2%%", pf)
	}
	if math.Abs(ChipArea(8)-15.12) > 0.1 {
		t.Fatalf("V-Rex8 area %v, want 15.12 mm^2", ChipArea(8))
	}
	if math.Abs(ChipArea(48)-90.57) > 0.5 {
		t.Fatalf("V-Rex48 area %v, want 90.57 mm^2", ChipArea(48))
	}
	lxe, dre := OnChipMemoryBytes()
	if lxe != 384*1024 {
		t.Fatal("LXE SRAM wrong")
	}
	if math.Abs(float64(dre)-20.125*1024) > 1 {
		t.Fatalf("DRE SRAM %v, want 20.125 KB", dre)
	}
}

func TestRooflineFig18(t *testing.T) {
	llm := Llama3_8B()
	fg := Roofline(AGXOrin(), llm, FlexGenModel(), 10, 40000, 4)
	rekv := Roofline(AGXOrin(), llm, ReKVModel(), 10, 40000, 4)
	vrex := Roofline(VRex8(), llm, ReSVModel(), 10, 40000, 4)
	// Paper: FlexGen ~6.6%, ReKV ~15%, V-Rex ~71.5% of theoretical max.
	if fg.PeakFraction > 0.15 {
		t.Fatalf("FlexGen at %.1f%% of peak, want < 15%%", 100*fg.PeakFraction)
	}
	if rekv.PeakFraction <= fg.PeakFraction {
		t.Fatal("ReKV should beat FlexGen utilisation")
	}
	if vrex.PeakFraction <= rekv.PeakFraction {
		t.Fatal("V-Rex should beat ReKV utilisation")
	}
	if vrex.PeakFraction < 0.3 || vrex.PeakFraction > 1 {
		t.Fatalf("V-Rex at %.1f%% of peak, want paper-like high fraction", 100*vrex.PeakFraction)
	}
	for _, p := range []RooflinePoint{fg, rekv, vrex} {
		if p.OpIntensity <= 0 || p.AchievedFLOPS <= 0 || p.CeilingFLOPS <= 0 {
			t.Fatalf("degenerate roofline point %+v", p)
		}
		if p.AchievedFLOPS > p.CeilingFLOPS*1.001 {
			t.Fatalf("%s exceeds its ceiling", p.System)
		}
	}
}

func TestBandwidthTraceFig17(t *testing.T) {
	tr := BandwidthTrace(VRex48(), Llama3_8B(), ReSVModel(), 10, 40000, 1, 2, 8)
	if len(tr) == 0 {
		t.Fatal("empty trace")
	}
	var sawPredSpike, sawRetrieval bool
	maxLLM := 0.0
	for i, p := range tr {
		if i > 0 && p.TimeUS < tr[i-1].TimeUS {
			t.Fatal("trace time not monotone")
		}
		if p.PredBW > 0 {
			sawPredSpike = true
			if p.Phase != "Attention" {
				t.Fatal("prediction must overlap attention")
			}
		}
		if p.RetrievalBW > 0 {
			sawRetrieval = true
		}
		if p.LLMBW > maxLLM {
			maxLLM = p.LLMBW
		}
	}
	if !sawPredSpike || !sawRetrieval {
		t.Fatal("trace missing prediction spike or retrieval flow")
	}
	// Retrieval consumes ~PCIe bandwidth, ~1-2% of HBM2e.
	frac := tr[0].RetrievalBW / VRex48().Mem.Bandwidth
	if frac > 0.05 {
		t.Fatalf("retrieval bandwidth fraction %v, want ~0.01-0.02", frac)
	}
	if maxLLM <= 0 {
		t.Fatal("LLM bandwidth missing")
	}
}

func TestChunkDegenerateInputs(t *testing.T) {
	sim := NewSim(VRex8(), Llama3_8B(), ReSVModel())
	if b := sim.Chunk(0, 1000, 1, StageFramePhase); b.Total != 0 {
		t.Fatal("zero tokens should cost nothing")
	}
	if b := sim.Chunk(10, 1000, 0, StageFramePhase); b.Total != 0 {
		t.Fatal("zero batch should cost nothing")
	}
}

func TestQuantFactor(t *testing.T) {
	full, four, unset := PolicyModel{KVQuantBits: 16}, PolicyModel{KVQuantBits: 4}, PolicyModel{}
	if full.quantFactor() != 1 {
		t.Fatal("16-bit factor should be 1")
	}
	if four.quantFactor() != 0.25 {
		t.Fatal("4-bit factor should be 0.25")
	}
	if unset.quantFactor() != 1 {
		t.Fatal("unset bits should default to 1")
	}
}

func TestBreakdownHelpers(t *testing.T) {
	b := Breakdown{LinearTime: 1, AttnTime: 2, PredExposed: 0.5, FetchExposed: 0.25, Total: 4, EnergyJ: 2, UsefulFLOPs: 8e9}
	if b.LLMTime() != 3 {
		t.Fatal("LLMTime wrong")
	}
	if b.RetrievalExposed() != 0.75 {
		t.Fatal("RetrievalExposed wrong")
	}
	if b.GOPSPerWatt() != 4 {
		t.Fatal("GOPSPerWatt wrong")
	}
	if b.FPS() != 0.25 {
		t.Fatal("FPS wrong")
	}
	var zero Breakdown
	if zero.GOPSPerWatt() != 0 || zero.FPS() != 0 {
		t.Fatal("zero breakdown helpers wrong")
	}
}

func TestKVBudgetBytes(t *testing.T) {
	llm := Llama3_8B()
	for _, dev := range []DeviceSpec{AGXOrin(), A100(), VRex8(), VRex48()} {
		b := dev.KVBudgetBytes(llm)
		if b <= 0 || b >= dev.MemCapacity {
			t.Fatalf("%s: KV budget %v out of (0, capacity %v)", dev.Name, b, dev.MemCapacity)
		}
		// Budget + weights + workspace must reconstruct device memory.
		if got := b + llm.WeightBytes() + kvWorkspaceBytes; math.Abs(got-dev.MemCapacity) > 1 {
			t.Fatalf("%s: budget accounting off: %v vs %v", dev.Name, got, dev.MemCapacity)
		}
	}
	// A device smaller than the model has no KV budget.
	tiny := VRex8()
	tiny.MemCapacity = 8e9
	if tiny.KVBudgetBytes(llm) != 0 {
		t.Fatal("undersized device must report zero budget")
	}
}

func TestPolicyKVBytesPerToken(t *testing.T) {
	llm := Llama3_8B()
	if got := ReSVModel().KVBytesPerToken(llm); got != llm.KVBytesPerToken() {
		t.Fatalf("16-bit policy must match raw footprint: %v", got)
	}
	// Oaken quantises KV to 4 bits: a quarter of the BF16 footprint.
	if got := OakenModel().KVBytesPerToken(llm); got != llm.KVBytesPerToken()/4 {
		t.Fatalf("4-bit policy footprint %v, want quarter of %v", got, llm.KVBytesPerToken())
	}
}
