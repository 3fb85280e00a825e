package model

import (
	"math"
	"testing"

	"vrex/internal/kvcache"
	"vrex/internal/mathx"
	"vrex/internal/tensor"
)

func testInput(rows, dim int, seed uint64) *tensor.Matrix {
	m := tensor.NewMatrix(rows, dim)
	m.Randomize(mathx.NewRNG(seed), 1)
	return m
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Layers: 0, Heads: 4, KVHeads: 4, Dim: 64, FFNDim: 128},
		{Layers: 1, Heads: 3, KVHeads: 3, Dim: 64, FFNDim: 128},   // Dim%Heads
		{Layers: 1, Heads: 4, KVHeads: 3, Dim: 64, FFNDim: 128},   // Heads%KVHeads
		{Layers: 1, Heads: 4, KVHeads: 4, Dim: 0, FFNDim: 128},    // zero dim
		{Layers: 1, Heads: 32, KVHeads: 32, Dim: 96, FFNDim: 128}, // odd head dim
		{Layers: 1, Heads: 4, KVHeads: 4, Dim: 64, FFNDim: 128, RotaryFraction: 2},
		// NaN would give NaN logits and hidden states.
		{Layers: 1, Heads: 4, KVHeads: 4, Dim: 64, FFNDim: 128, Sharpness: math.NaN()},
		{Layers: 1, Heads: 4, KVHeads: 4, Dim: 64, FFNDim: 128, Sharpness: math.Inf(1)},
		// int(NaN) would silently turn rotation off.
		{Layers: 1, Heads: 4, KVHeads: 4, Dim: 64, FFNDim: 128, RotaryFraction: math.NaN()},
		// With dimensions rotating, math.Pow would give NaN or Inf angles.
		{Layers: 1, Heads: 4, KVHeads: 4, Dim: 64, FFNDim: 128, RotaryFraction: 0.5, RoPETheta: math.NaN()},
		{Layers: 1, Heads: 4, KVHeads: 4, Dim: 64, FFNDim: 128, RotaryFraction: 0.5, RoPETheta: 0},
		{Layers: 1, Heads: 4, KVHeads: 4, Dim: 64, FFNDim: 128, RotaryFraction: 0.5, RoPETheta: -10000},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// RoPETheta is read only when dimensions rotate: a fraction too small
	// to rotate two of the 16 head dims needs none.
	for _, c := range []Config{
		{Layers: 1, Heads: 4, KVHeads: 4, Dim: 64, FFNDim: 128},
		{Layers: 1, Heads: 4, KVHeads: 4, Dim: 64, FFNDim: 128, RotaryFraction: 0.1, RoPETheta: math.NaN()},
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("config %+v rejected: %v", c, err)
		}
	}
}

func TestConfigDerived(t *testing.T) {
	c := Config{Layers: 2, Heads: 8, KVHeads: 2, Dim: 64, FFNDim: 128}
	if c.HeadDim() != 8 {
		t.Fatal("HeadDim wrong")
	}
	if c.KVDim() != 16 {
		t.Fatal("KVDim wrong")
	}
}

func TestForwardDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	a := New(cfg)
	b := New(cfg)
	x := testInput(5, cfg.Dim, 3)
	ra := a.Forward(x, DenseRetriever{}, StageFrame, false)
	rb := b.Forward(x, DenseRetriever{}, StageFrame, false)
	for i := range ra.Hidden.Data {
		if ra.Hidden.Data[i] != rb.Hidden.Data[i] {
			t.Fatal("same-seed models diverged")
		}
	}
}

func TestForwardAdvancesPositionAndCache(t *testing.T) {
	cfg := DefaultConfig()
	m := New(cfg)
	m.Forward(testInput(4, cfg.Dim, 1), DenseRetriever{}, StageFrame, false)
	m.Forward(testInput(3, cfg.Dim, 2), DenseRetriever{}, StageFrame, false)
	if m.Pos() != 7 {
		t.Fatalf("pos = %d, want 7", m.Pos())
	}
	for l := 0; l < cfg.Layers; l++ {
		if m.Cache(l).Len() != 7 {
			t.Fatalf("layer %d cache len %d, want 7", l, m.Cache(l).Len())
		}
	}
}

func TestResetClearsState(t *testing.T) {
	cfg := DefaultConfig()
	m := New(cfg)
	m.Forward(testInput(4, cfg.Dim, 1), DenseRetriever{}, StageFrame, false)
	m.Reset()
	if m.Pos() != 0 || m.Cache(0).Len() != 0 {
		t.Fatal("Reset incomplete")
	}
}

// TestChunkingInvariance: processing tokens in one chunk or two must give
// identical final hidden states under dense attention (the iterative prefill
// of Fig. 3 is exact, not approximate).
func TestChunkingInvariance(t *testing.T) {
	cfg := DefaultConfig()
	x := testInput(6, cfg.Dim, 9)

	whole := New(cfg)
	rw := whole.Forward(x, DenseRetriever{}, StageFrame, false)

	split := New(cfg)
	x1 := tensor.NewMatrix(4, cfg.Dim)
	copy(x1.Data, x.Data[:4*cfg.Dim])
	x2 := tensor.NewMatrix(2, cfg.Dim)
	copy(x2.Data, x.Data[4*cfg.Dim:])
	split.Forward(x1, DenseRetriever{}, StageFrame, false)
	rs := split.Forward(x2, DenseRetriever{}, StageFrame, false)

	// Compare last two rows of whole vs rs.
	for i := 0; i < 2; i++ {
		wrow := rw.Hidden.Row(4 + i)
		srow := rs.Hidden.Row(i)
		for d := range wrow {
			if math.Abs(float64(wrow[d]-srow[d])) > 1e-4 {
				t.Fatalf("chunked forward differs at token %d dim %d: %v vs %v", i, d, wrow[d], srow[d])
			}
		}
	}
}

// TestCausality: a token's output must not depend on later tokens.
func TestCausality(t *testing.T) {
	cfg := DefaultConfig()
	x := testInput(5, cfg.Dim, 11)

	m1 := New(cfg)
	r1 := m1.Forward(x, DenseRetriever{}, StageFrame, false)

	// Perturb the last token and re-run.
	x2 := x.Clone()
	for d := 0; d < cfg.Dim; d++ {
		x2.Set(4, d, x2.At(4, d)+1)
	}
	m2 := New(cfg)
	r2 := m2.Forward(x2, DenseRetriever{}, StageFrame, false)

	for i := 0; i < 4; i++ {
		for d := 0; d < cfg.Dim; d++ {
			if r1.Hidden.At(i, d) != r2.Hidden.At(i, d) {
				t.Fatalf("token %d output changed by future perturbation", i)
			}
		}
	}
	changed := false
	for d := 0; d < cfg.Dim; d++ {
		if r1.Hidden.At(4, d) != r2.Hidden.At(4, d) {
			changed = true
		}
	}
	if !changed {
		t.Fatal("perturbed token output unchanged — perturbation ineffective")
	}
}

func TestAttnMassRecording(t *testing.T) {
	cfg := DefaultConfig()
	m := New(cfg)
	m.Forward(testInput(6, cfg.Dim, 1), DenseRetriever{}, StageFrame, false)
	res := m.Forward(testInput(2, cfg.Dim, 2), DenseRetriever{}, StageText, true)
	if len(res.AttnMass) != 6 {
		t.Fatalf("AttnMass length %d, want 6", len(res.AttnMass))
	}
	var total float64
	for _, v := range res.AttnMass {
		if v < 0 {
			t.Fatal("negative attention mass")
		}
		total += v
	}
	// Mass over past tokens is bounded by layers*heads*queries (softmax sums
	// to 1 per head-query, part going to in-chunk tokens).
	upper := float64(cfg.Layers * cfg.Heads * 2)
	if total <= 0 || total > upper {
		t.Fatalf("total past mass %v out of (0, %v]", total, upper)
	}
}

func TestNoRecordingNilMass(t *testing.T) {
	cfg := DefaultConfig()
	m := New(cfg)
	res := m.Forward(testInput(2, cfg.Dim, 1), DenseRetriever{}, StageFrame, false)
	if res.AttnMass != nil {
		t.Fatal("AttnMass should be nil when not recording")
	}
}

// restrictedRetriever selects only the given fixed tokens.
type restrictedRetriever struct{ allowed []int }

func (r restrictedRetriever) ObserveAppend(int, *kvcache.LayerCache, int, int) {}
func (r restrictedRetriever) SelectTokens(_ int, _ *kvcache.LayerCache, _ *tensor.Matrix, base int, _ Stage) []int {
	var out []int
	for _, t := range r.allowed {
		if t < base {
			out = append(out, t)
		}
	}
	return out
}

func TestRestrictedRetrieverLimitsMass(t *testing.T) {
	cfg := DefaultConfig()
	m := New(cfg)
	m.Forward(testInput(6, cfg.Dim, 1), DenseRetriever{}, StageFrame, false)
	res := m.Forward(testInput(1, cfg.Dim, 2), restrictedRetriever{allowed: []int{0, 1}}, StageText, true)
	for tok := 2; tok < 6; tok++ {
		if res.AttnMass[tok] != 0 {
			t.Fatalf("unselected token %d received mass %v", tok, res.AttnMass[tok])
		}
	}
	if res.AttnMass[0] == 0 && res.AttnMass[1] == 0 {
		t.Fatal("selected tokens received no mass")
	}
}

func TestRetrievalChangesOutput(t *testing.T) {
	cfg := DefaultConfig()
	hist := testInput(6, cfg.Dim, 1)
	probe := testInput(1, cfg.Dim, 2)

	dense := New(cfg)
	dense.Forward(hist, DenseRetriever{}, StageFrame, false)
	rd := dense.Forward(probe, DenseRetriever{}, StageText, false)

	restr := New(cfg)
	restr.Forward(hist, DenseRetriever{}, StageFrame, false)
	rr := restr.Forward(probe, restrictedRetriever{allowed: []int{0}}, StageText, false)

	diff := 0.0
	for i := range rd.Hidden.Data {
		diff += math.Abs(float64(rd.Hidden.Data[i] - rr.Hidden.Data[i]))
	}
	if diff < 1e-6 {
		t.Fatal("restricting retrieval should change the output")
	}
}

func TestDenseRetrieverSelectsAllPast(t *testing.T) {
	sel := DenseRetriever{}.SelectTokens(0, nil, nil, 5, StageFrame)
	if len(sel) != 5 {
		t.Fatalf("selected %d, want 5", len(sel))
	}
	for i, v := range sel {
		if v != i {
			t.Fatal("dense selection should be identity")
		}
	}
}

func TestGQAConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.KVHeads = 2 // 4 heads sharing 2 KV heads
	m := New(cfg)
	res := m.Forward(testInput(3, cfg.Dim, 1), DenseRetriever{}, StageFrame, false)
	if res.Hidden.Rows != 3 || res.Hidden.Cols != cfg.Dim {
		t.Fatal("GQA forward shape wrong")
	}
	if m.Cache(0).Dim != cfg.KVDim() {
		t.Fatal("cache dim should be KVDim")
	}
}

// TestTiedQKSimilarContentHighScore verifies the substitution that makes the
// synthetic accuracy experiments meaningful: a query embedded identically to
// an earlier token attends to it far more than to unrelated tokens.
func TestTiedQKSimilarContentHighScore(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Layers = 1
	m := New(cfg)
	rng := mathx.NewRNG(5)
	hist := tensor.NewMatrix(8, cfg.Dim)
	hist.Randomize(rng, 1)
	m.Forward(hist, DenseRetriever{}, StageFrame, false)
	// Probe = copy of token 3's embedding.
	probe := tensor.NewMatrix(1, cfg.Dim)
	copy(probe.Row(0), hist.Row(3))
	res := m.Forward(probe, DenseRetriever{}, StageText, true)
	best, bestMass := -1, -1.0
	for tok, mass := range res.AttnMass {
		if mass > bestMass {
			best, bestMass = tok, mass
		}
	}
	if best != 3 {
		t.Fatalf("query matching token 3 attended most to token %d", best)
	}
}
