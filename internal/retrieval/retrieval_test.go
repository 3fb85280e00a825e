package retrieval

import (
	"testing"

	"vrex/internal/core"
	"vrex/internal/mathx"
	"vrex/internal/model"
	"vrex/internal/tensor"
	"vrex/internal/workload"
)

var _ Policy = (*AllPast)(nil)
var _ Policy = (*InfiniGen)(nil)
var _ Policy = (*InfiniGenP)(nil)
var _ Policy = (*ReKV)(nil)
var _ Policy = (*core.ReSV)(nil)

func setup(t *testing.T, p model.Retriever, nFrames, tokensPerFrame int) *model.Model {
	t.Helper()
	cfg := model.DefaultConfig()
	m := model.New(cfg)
	rng := mathx.NewRNG(21)
	for f := 0; f < nFrames; f++ {
		x := tensor.NewMatrix(tokensPerFrame, cfg.Dim)
		x.Randomize(rng, 1)
		m.Forward(x, p, model.StageFrame, false)
	}
	return m
}

func TestFlexGenSelectsEverything(t *testing.T) {
	p := NewFlexGen()
	m := setup(t, p, 4, 5)
	if m.Pos() != 20 {
		t.Fatal("setup failed")
	}
	if p.FrameRatio() != 1 {
		t.Fatalf("FlexGen frame ratio %v, want 1", p.FrameRatio())
	}
	if p.Name() != "FlexGen" {
		t.Fatal("name wrong")
	}
}

func TestInfiniGenFullFetchDuringFrames(t *testing.T) {
	cfg := model.DefaultConfig()
	p := NewInfiniGen(cfg, 0.1)
	setup(t, p, 4, 5)
	if p.FrameRatio() != 1 {
		t.Fatalf("InfiniGen must not select during prefill: ratio %v", p.FrameRatio())
	}
}

func TestInfiniGenSelectsDuringText(t *testing.T) {
	cfg := model.DefaultConfig()
	p := NewInfiniGen(cfg, 0.25)
	m := setup(t, p, 4, 5)
	q := tensor.NewMatrix(2, cfg.Dim)
	q.Randomize(mathx.NewRNG(5), 1)
	m.Forward(q, p, model.StageText, false)
	r := p.TextRatio()
	if r < 0.15 || r > 0.35 {
		t.Fatalf("text ratio %v, want ~0.25", r)
	}
}

func TestInfiniGenPBudgetsRespected(t *testing.T) {
	cfg := model.DefaultConfig()
	p := NewInfiniGenP(cfg, 0.5, 0.1)
	m := setup(t, p, 6, 5)
	fr := p.FrameRatio()
	if fr < 0.4 || fr > 0.6 {
		t.Fatalf("frame ratio %v, want ~0.5", fr)
	}
	q := tensor.NewMatrix(2, cfg.Dim)
	q.Randomize(mathx.NewRNG(6), 1)
	m.Forward(q, p, model.StageText, false)
	tr := p.TextRatio()
	if tr < 0.05 || tr > 0.2 {
		t.Fatalf("text ratio %v, want ~0.1", tr)
	}
}

func TestInfiniGenPSelectionValid(t *testing.T) {
	cfg := model.DefaultConfig()
	p := NewInfiniGenP(cfg, 0.5, 0.1)
	m := setup(t, p, 3, 5)
	base := m.Pos()
	q := tensor.NewMatrix(1, cfg.Dim)
	q.Randomize(mathx.NewRNG(7), 1)
	sel := p.SelectTokens(0, m.Cache(0), q, base, model.StageFrame)
	seen := map[int]bool{}
	for _, tok := range sel {
		if tok < 0 || tok >= base || seen[tok] {
			t.Fatalf("invalid selection %v", sel)
		}
		seen[tok] = true
	}
	for i := 1; i < len(sel); i++ {
		if sel[i] <= sel[i-1] {
			t.Fatal("selection not strictly ascending")
		}
	}
}

func TestReKVSelectsWholeFrames(t *testing.T) {
	cfg := model.DefaultConfig()
	const frameSize = 5
	p := NewReKV(cfg, frameSize, 0.6, 0.3)
	m := setup(t, p, 6, frameSize)
	base := m.Pos()
	q := tensor.NewMatrix(1, cfg.Dim)
	q.Randomize(mathx.NewRNG(8), 1)
	sel := p.SelectTokens(0, m.Cache(0), q, base, model.StageFrame)
	// Every selected token's whole frame must be present (frame granularity).
	inSel := map[int]bool{}
	for _, tok := range sel {
		inSel[tok] = true
	}
	for _, tok := range sel {
		f := tok / frameSize
		for k := f * frameSize; k < (f+1)*frameSize && k < base; k++ {
			if !inSel[k] {
				t.Fatalf("frame %d partially selected", f)
			}
		}
	}
}

func TestReKVBudget(t *testing.T) {
	cfg := model.DefaultConfig()
	p := NewReKV(cfg, 5, 0.5, 0.2)
	setup(t, p, 8, 5)
	r := p.FrameRatio()
	// Frame granularity overshoots by at most one frame per call.
	if r < 0.35 || r > 0.8 {
		t.Fatalf("ReKV frame ratio %v, want ~0.5-0.65", r)
	}
}

func TestReKVZeroBase(t *testing.T) {
	cfg := model.DefaultConfig()
	p := NewReKV(cfg, 5, 0.5, 0.2)
	if sel := p.SelectTokens(0, nil, nil, 0, model.StageFrame); sel != nil {
		t.Fatal("zero base should select nothing")
	}
}

func TestReKVPanicsOnBadFrameSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewReKV(model.DefaultConfig(), 0, 0.5, 0.2)
}

func TestDensePolicy(t *testing.T) {
	p := NewDense()
	setup(t, p, 2, 4)
	if p.Name() != "VideoLLM-Online" || p.FrameRatio() != 1 || p.TextRatio() != 1 {
		t.Fatal("dense policy wrong")
	}
}

func TestTopK(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.5, 0.7, 0.2}
	sel := topK(scores, 2)
	if len(sel) != 2 || sel[0] != 1 || sel[1] != 3 {
		t.Fatalf("topK = %v, want [1 3]", sel)
	}
	if got := topK(scores, 10); len(got) != 5 {
		t.Fatal("k > n should return all")
	}
	if got := topK(scores, 0); got != nil {
		t.Fatal("k = 0 should return nil")
	}
}

func TestTopKProperty(t *testing.T) {
	rng := mathx.NewRNG(33)
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(200)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = rng.Float64()
		}
		k := 1 + rng.Intn(n)
		sel := topK(scores, k)
		if len(sel) != k {
			t.Fatalf("topK returned %d of %d", len(sel), k)
		}
		// Every selected score >= every unselected score.
		inSel := map[int]bool{}
		minSel := 2.0
		for _, i := range sel {
			inSel[i] = true
			if scores[i] < minSel {
				minSel = scores[i]
			}
		}
		for i, s := range scores {
			if !inSel[i] && s > minSel+1e-12 {
				t.Fatalf("unselected %v > min selected %v", s, minSel)
			}
		}
	}
}

// TestReSVRatioBeatsFixedTopK reproduces the qualitative Table II claim:
// on the COIN-like streaming workload, ReSV's adaptive selection fetches
// fewer tokens than the 50%-budget InfiniGenP and far fewer than ReKV,
// while both run the same session.
func TestReSVRatioBeatsFixedTopK(t *testing.T) {
	mcfg := model.DefaultConfig()
	wcfg := workload.DefaultConfig()
	gen := workload.NewGenerator(wcfg, mcfg.Dim)
	sess := gen.Session(workload.TaskStep, 0)

	run := func(p model.Retriever) {
		m := model.New(mcfg)
		for _, fe := range sess.FrameEmbeds {
			m.Forward(fe, p, model.StageFrame, false)
		}
		for _, q := range sess.Queries {
			m.Forward(q.Embeddings, p, model.StageText, false)
		}
	}
	resv := core.New(mcfg, core.DefaultConfig())
	run(resv)
	igp := NewInfiniGenP(mcfg, 0.5, 0.068)
	run(igp)
	rekv := NewReKV(mcfg, wcfg.Stream.TokensPerFrame, 0.584, 0.312)
	run(rekv)
	if resv.FrameRatio() >= igp.FrameRatio() {
		t.Fatalf("ReSV frame ratio %v should beat InfiniGenP %v",
			resv.FrameRatio(), igp.FrameRatio())
	}
	if resv.FrameRatio() >= rekv.FrameRatio() {
		t.Fatalf("ReSV frame ratio %v should beat ReKV %v",
			resv.FrameRatio(), rekv.FrameRatio())
	}
	if resv.TextRatio() >= rekv.TextRatio() {
		t.Fatalf("ReSV text ratio %v should beat ReKV %v",
			resv.TextRatio(), rekv.TextRatio())
	}
}

func TestPruningEvictsPermanently(t *testing.T) {
	cfg := model.DefaultConfig()
	p := NewPruning(cfg, 0.3)
	m := setup(t, p, 10, 5)
	// After many chunks at 30% retention, the live set must be far below
	// the full history.
	live := len(p.alive[0])
	if live >= m.Pos()/2 {
		t.Fatalf("pruning kept %d of %d tokens, want far fewer", live, m.Pos())
	}
	// Evicted tokens never come back: a query attends only the tokens that
	// were live before the call (eviction then shrinks the set further).
	liveBefore := len(p.alive[0])
	q := tensor.NewMatrix(1, cfg.Dim)
	q.Randomize(mathx.NewRNG(9), 1)
	sel := p.SelectTokens(0, m.Cache(0), q, m.Pos(), model.StageText)
	if len(sel) > liveBefore {
		t.Fatalf("selection %d exceeds prior live set %d", len(sel), liveBefore)
	}
	if len(p.alive[0]) > liveBefore {
		t.Fatal("live set must never grow from selection")
	}
}

func TestPruningKeepsAtLeastOne(t *testing.T) {
	cfg := model.DefaultConfig()
	p := NewPruning(cfg, 0.0001)
	setup(t, p, 4, 5)
	if len(p.alive[0]) < 1 {
		t.Fatal("pruning must keep at least one token")
	}
}

func TestPruningName(t *testing.T) {
	if NewPruning(model.DefaultConfig(), 0.5).Name() == "" {
		t.Fatal("name empty")
	}
}
