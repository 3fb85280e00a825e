package hwsim

import (
	"math"
	"testing"
)

func TestPipelineEventsValid(t *testing.T) {
	llm := Llama3_8B()
	for _, sys := range []struct {
		dev DeviceSpec
		pol PolicyModel
	}{
		{AGXOrin(), FlexGenModel()},
		{AGXOrin(), InfiniGenPModel()},
		{VRex8(), ReSVModel()},
	} {
		sim := NewSim(sys.dev, llm, sys.pol)
		res := sim.SimulatePipeline(10, 20000, 1)
		if len(res.Events) == 0 {
			t.Fatalf("%s: no events", sys.pol.Name)
		}
		// Per-resource non-overlap.
		lastEnd := map[Resource]float64{}
		byRes := map[Resource][]PipelineEvent{}
		for _, e := range res.Events {
			byRes[e.Res] = append(byRes[e.Res], e)
			if e.End < e.Start {
				t.Fatalf("%s: negative-duration event %+v", sys.pol.Name, e)
			}
		}
		for r, evs := range byRes {
			for _, e := range evs {
				if e.Start < lastEnd[r]-1e-12 {
					t.Fatalf("%s: overlapping events on %v", sys.pol.Name, r)
				}
				lastEnd[r] = e.End
			}
		}
		if res.Total <= 0 {
			t.Fatalf("%s: zero makespan", sys.pol.Name)
		}
	}
}

func TestPipelineDependencies(t *testing.T) {
	sim := NewSim(AGXOrin(), Llama3_8B(), InfiniGenPModel())
	res := sim.SimulatePipeline(10, 20000, 1)
	pred := map[int]float64{}
	fetch := map[int]float64{}
	for _, e := range res.Events {
		switch e.Kind {
		case "pred":
			pred[e.Layer] = e.End
		case "fetch":
			if e.Start < pred[e.Layer]-1e-12 {
				t.Fatalf("layer %d fetch before prediction", e.Layer)
			}
			fetch[e.Layer] = e.End
		case "attn+ffn":
			if e.Start < fetch[e.Layer]-1e-12 {
				t.Fatalf("layer %d compute before fetch", e.Layer)
			}
		}
	}
}

// TestPipelineMatchesClosedForm keeps the event-driven schedule consistent
// with the analytic overlap formula: the makespans must agree within 40%
// across systems and cache sizes (they model the same pipeline with
// different granularity).
func TestPipelineMatchesClosedForm(t *testing.T) {
	llm := Llama3_8B()
	for _, sys := range []struct {
		dev DeviceSpec
		pol PolicyModel
	}{
		{AGXOrin(), FlexGenModel()},
		{AGXOrin(), ReKVModel()},
		{VRex8(), ReSVModel()},
	} {
		for _, kv := range []int{5000, 40000} {
			sim := NewSim(sys.dev, llm, sys.pol)
			closed := sim.Chunk(10, kv, 1, StageFramePhase)
			event := sim.SimulatePipeline(10, kv, 1)
			closedLLM := closed.Total - closed.VisionTime
			ratio := event.Total / closedLLM
			if ratio < 0.6 || ratio > 1.4 {
				t.Errorf("%s kv=%d: event %v vs closed-form %v (ratio %.2f)",
					sys.pol.Name, kv, event.Total, closedLLM, ratio)
			}
		}
	}
}

// TestPipelineDREConcurrency: on V-Rex the DRE carries prediction, so the
// compute engine's schedule contains no pred events; on the GPU it does.
func TestPipelineDREConcurrency(t *testing.T) {
	llm := Llama3_8B()
	vrex := NewSim(VRex8(), llm, ReSVModel()).SimulatePipeline(10, 40000, 1)
	sawDRE := false
	for _, e := range vrex.Events {
		if e.Kind == "pred" {
			if e.Res != ResDRE {
				t.Fatal("V-Rex prediction must run on the DRE")
			}
			sawDRE = true
		}
	}
	if !sawDRE {
		t.Fatal("V-Rex pipeline missing DRE prediction events")
	}
	gpu := NewSim(AGXOrin(), llm, ReSVOnGPUModel()).SimulatePipeline(10, 40000, 1)
	for _, e := range gpu.Events {
		if e.Kind == "pred" && e.Res != ResCompute {
			t.Fatal("GPU prediction must serialise on compute")
		}
	}
	// The GPU spends a visible fraction of its compute time on prediction;
	// the V-Rex compute engine spends none.
	if gpu.Busy[ResCompute] <= vrex.Busy[ResCompute] {
		t.Fatal("GPU compute busy time should exceed V-Rex (prediction load)")
	}
}

func TestPipelineUtilization(t *testing.T) {
	sim := NewSim(AGXOrin(), Llama3_8B(), FlexGenModel())
	res := sim.SimulatePipeline(10, 40000, 1)
	u := res.Busy[ResLink] / res.Total
	if u <= 0 || u > 1 {
		t.Fatalf("link utilization %v out of (0,1]", u)
	}
	// FlexGen at 40K is fetch-bound: the link is the busiest resource.
	if res.Busy[ResLink] <= res.Busy[ResCompute] {
		t.Fatal("FlexGen at 40K should be link-bound")
	}
}

func TestResourceString(t *testing.T) {
	if ResCompute.String() != "compute" || ResLink.String() != "link" || ResDRE.String() != "dre" {
		t.Fatal("resource names wrong")
	}
	if Resource(9).String() != "?" {
		t.Fatal("unknown resource should be ?")
	}
}

func TestPipelineOOM(t *testing.T) {
	sim := NewSim(AGXOrin(), Llama3_8B(), DenseModel())
	res := sim.SimulatePipeline(10, 40000, 16)
	if len(res.Events) != 0 || res.Total != 0 {
		t.Fatal("OOM configuration should produce an empty schedule")
	}
}

func TestPipelineSpeedupOrdering(t *testing.T) {
	// The event-driven model must reproduce the headline ordering too.
	llm := Llama3_8B()
	fg := NewSim(AGXOrin(), llm, FlexGenModel()).SimulatePipeline(10, 40000, 1)
	vx := NewSim(VRex8(), llm, ReSVModel()).SimulatePipeline(10, 40000, 1)
	if fg.Total/vx.Total < 3 {
		t.Fatalf("event-driven speedup %.1fx, want >= 3x", fg.Total/vx.Total)
	}
	if math.IsNaN(fg.Total) || math.IsNaN(vx.Total) {
		t.Fatal("NaN makespan")
	}
}
