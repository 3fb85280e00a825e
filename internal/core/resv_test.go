package core

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"vrex/internal/kvcache"
	"vrex/internal/mathx"
	"vrex/internal/model"
	"vrex/internal/tensor"
	"vrex/internal/wicsum"
)

func frameInput(rows, dim int, rng *mathx.RNG) *tensor.Matrix {
	m := tensor.NewMatrix(rows, dim)
	m.Randomize(rng, 1)
	return m
}

// driftFrames returns nFrames correlated frames (AR rho) of tokensPerFrame
// embeddings, mimicking the vision stream's temporal similarity.
func driftFrames(nFrames, tokensPerFrame, dim int, rho float32, rng *mathx.RNG) []*tensor.Matrix {
	base := frameInput(tokensPerFrame, dim, rng)
	frames := []*tensor.Matrix{base.Clone()}
	nscale := float32(math.Sqrt(float64(1 - rho*rho)))
	for f := 1; f < nFrames; f++ {
		next := frames[f-1].Clone()
		for i := range next.Data {
			next.Data[i] = rho*next.Data[i] + nscale*rng.Norm32()
		}
		frames = append(frames, next)
	}
	return frames
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := (Config{NHp: maxNHp, ThWics: 0.3}).Validate(); err != nil {
		t.Fatalf("NHp = maxNHp rejected: %v", err)
	}
	bad := []Config{
		{NHp: 0, ThWics: 0.3},
		{NHp: maxNHp + 1, ThWics: 0.3},
		{NHp: 32, ThHD: -1, ThWics: 0.3},
		{NHp: 32, ThWics: 0},
		{NHp: 32, ThWics: 1.5},
		{NHp: 32, ThWics: math.NaN()}, // would never trip the threshold
		{NHp: 32, ThWics: math.Inf(1)},
		{NHp: 32, ThWics: 0.3, RecentWindow: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestReSVImplementsRetrieverEndToEnd(t *testing.T) {
	mcfg := model.DefaultConfig()
	m := model.New(mcfg)
	r := New(mcfg, DefaultConfig())
	rng := mathx.NewRNG(2)
	for _, f := range driftFrames(5, 6, mcfg.Dim, 0.97, rng) {
		m.Forward(f, r, model.StageFrame, false)
	}
	if m.Pos() != 30 {
		t.Fatal("frames not processed")
	}
	st := r.Stats()
	if st.Frame.CandidateTokens == 0 {
		t.Fatal("no candidates recorded")
	}
	ratio := st.Frame.RetrievalRatio()
	if ratio <= 0 || ratio > 1 {
		t.Fatalf("frame retrieval ratio %v out of (0,1]", ratio)
	}
}

func TestReSVSelectionSubsetOfPast(t *testing.T) {
	mcfg := model.DefaultConfig()
	m := model.New(mcfg)
	r := New(mcfg, DefaultConfig())
	rng := mathx.NewRNG(3)
	frames := driftFrames(4, 5, mcfg.Dim, 0.97, rng)
	for _, f := range frames[:3] {
		m.Forward(f, r, model.StageFrame, false)
	}
	// Directly exercise SelectTokens at layer 0.
	base := m.Pos()
	q := frameInput(5, mcfg.Dim, rng)
	sel := r.SelectTokens(0, m.Cache(0), q, base, model.StageFrame)
	seen := map[int]bool{}
	for _, tok := range sel {
		if tok < 0 || tok >= base {
			t.Fatalf("selected token %d outside past range [0,%d)", tok, base)
		}
		if seen[tok] {
			t.Fatalf("duplicate token %d in selection", tok)
		}
		seen[tok] = true
	}
	// Sorted ascending.
	for i := 1; i < len(sel); i++ {
		if sel[i] < sel[i-1] {
			t.Fatal("selection not sorted")
		}
	}
}

func TestReSVEmptyHistory(t *testing.T) {
	mcfg := model.DefaultConfig()
	r := New(mcfg, DefaultConfig())
	if sel := r.SelectTokens(0, kvcache.NewLayerCache(mcfg.KVDim()), nil, 0, model.StageFrame); sel != nil {
		t.Fatal("no history should select nothing")
	}
}

func TestReSVClusteringCompressesSimilarFrames(t *testing.T) {
	mcfg := model.DefaultConfig()
	m := model.New(mcfg)
	r := New(mcfg, DefaultConfig())
	rng := mathx.NewRNG(4)
	for _, f := range driftFrames(8, 8, mcfg.Dim, 0.99, rng) {
		m.Forward(f, r, model.StageFrame, false)
	}
	// With near-identical frames, clusters should hold well over 1 token on
	// average at layer 0.
	avg := r.HCTable(0).AvgTokensPerCluster()
	if avg < 1.5 {
		t.Fatalf("avg tokens/cluster = %v, want > 1.5 for highly similar frames", avg)
	}
}

func TestReSVDisableClusteringSingletons(t *testing.T) {
	mcfg := model.DefaultConfig()
	m := model.New(mcfg)
	cfg := DefaultConfig()
	cfg.DisableClustering = true
	r := New(mcfg, cfg)
	rng := mathx.NewRNG(5)
	for _, f := range driftFrames(4, 6, mcfg.Dim, 0.99, rng) {
		m.Forward(f, r, model.StageFrame, false)
	}
	tab := r.HCTable(0)
	if tab.AvgTokensPerCluster() != 1 {
		t.Fatalf("clustering disabled but avg tokens/cluster = %v", tab.AvgTokensPerCluster())
	}
}

func TestReSVAdaptiveRatioVariesAcrossLayers(t *testing.T) {
	// Fig. 20's core claim: per-layer ratios differ (scores distributions
	// vary by layer). With a multi-layer model we expect non-identical
	// ratios across layers.
	mcfg := model.DefaultConfig()
	mcfg.Layers = 4
	m := model.New(mcfg)
	cfg := DefaultConfig()
	r := New(mcfg, cfg)
	rng := mathx.NewRNG(6)
	for _, f := range driftFrames(10, 8, mcfg.Dim, 0.95, rng) {
		m.Forward(f, r, model.StageFrame, false)
	}
	ratios := map[string]bool{}
	for _, pl := range r.Stats().PerLayer {
		// Bucket to 3 decimals to detect "all identical".
		ratios[bucket3(pl.Value())] = true
	}
	if len(ratios) < 2 {
		t.Fatalf("per-layer ratios all identical: %v", r.Stats().PerLayer)
	}
}

func bucket3(v float64) string {
	return string(rune('0'+int(v*1000)%10)) + string(rune('0'+int(v*100)%10)) + string(rune('0'+int(v*10)%10))
}

// TestReSVRecentWindowAlwaysIncluded also selects for a chunk with no query
// rows: it scores nothing, yet returns exactly the recent window and counts
// one call with no rows and nothing examined.
func TestReSVRecentWindowAlwaysIncluded(t *testing.T) {
	mcfg := model.DefaultConfig()
	m := model.New(mcfg)
	cfg := DefaultConfig()
	cfg.RecentWindow = 5
	r := New(mcfg, cfg)
	rng := mathx.NewRNG(7)
	frames := driftFrames(3, 6, mcfg.Dim, 0.97, rng)
	for _, f := range frames {
		m.Forward(f, r, model.StageFrame, false)
	}
	base := m.Pos()
	q := frameInput(2, mcfg.Dim, rng)
	sel := r.SelectTokens(0, m.Cache(0), q, base, model.StageText)
	inSel := map[int]bool{}
	for _, tok := range sel {
		inSel[tok] = true
	}
	for tok := base - 5; tok < base; tok++ {
		if !inSel[tok] {
			t.Fatalf("recent token %d missing from selection", tok)
		}
	}

	before := r.Stats().Text
	sel = r.SelectTokens(0, m.Cache(0), tensor.NewMatrix(0, mcfg.Dim), base, model.StageText)
	if want := []int{base - 5, base - 4, base - 3, base - 2, base - 1}; !slices.Equal(sel, want) {
		t.Fatalf("no query rows: selection %v, want the recent window %v", sel, want)
	}
	after := r.Stats().Text
	if after.Calls != before.Calls+1 || after.Rows != before.Rows || after.ExaminedFraction != before.ExaminedFraction {
		t.Fatalf("no query rows: text stats went from %+v to %+v, want one more call and nothing else scored", before, after)
	}
}

// TestSelectTokensIsSortedUnion requires SelectTokens to return exactly the
// sorted union of the selected clusters' past tokens and the recent window.
// Each row is scored again here from the chunk's queries and the HC
// table's representative keys, both widened here rather than read from
// SelectTokens' mirrors, exp-normalised whole and thresholded through the
// reference sorter at the WTU's 20 buckets, whose preprocess step is its
// own pass over the row. It runs the default config and grouped-query
// attention (Heads/KVHeads 4/2, 4/1 and 8/2), N_hp 64, 96 and 128 (the HC
// table's general scan loop above 64), head dims 8 and 32 and ThWics 0.1
// and 0.5. Frames of 7 tokens put every base off a multiple of 64, and the
// 70-token window spans words of the token bitset.
func TestSelectTokensIsSortedUnion(t *testing.T) {
	for _, c := range []struct {
		name                string
		heads, kvHeads, dim int
		nhp                 int
		thWics              float64
		window              int
	}{
		{"default", 4, 4, 64, 32, 0.3, 5},
		{"window70", 4, 4, 64, 32, 0.3, 70},
		{"kv2-nhp64-th0.1", 4, 2, 64, 64, 0.1, 5},
		{"kv1-hd8-nhp96-th0.5", 4, 1, 32, 96, 0.5, 5},
		{"heads8-kv2-hd8-nhp128-window70", 8, 2, 64, 128, 0.3, 70},
		{"hd32-nhp64-th0.5", 4, 4, 128, 64, 0.5, 5},
		{"heads8-kv2-hd32-th0.1", 8, 2, 256, 32, 0.1, 5},
	} {
		t.Run(c.name, func(t *testing.T) {
			mcfg := model.DefaultConfig()
			mcfg.Heads, mcfg.KVHeads, mcfg.Dim = c.heads, c.kvHeads, c.dim
			cfg := DefaultConfig()
			cfg.NHp, cfg.ThWics, cfg.RecentWindow = c.nhp, c.thWics, c.window
			cfg.Workers = 1
			m := model.New(mcfg)
			r := New(mcfg, cfg)
			rng := mathx.NewRNG(24)
			headDim, group := mcfg.HeadDim(), mcfg.Heads/mcfg.KVHeads
			invSqrt := float32(mcfg.Sharpness / math.Sqrt(float64(headDim)))
			beyondWindow := 0
			for _, frame := range driftFrames(20, 7, mcfg.Dim, 0.95, rng) {
				m.Forward(frame, r, model.StageFrame, false)
				base := m.Pos()
				q := frameInput(3, mcfg.Dim, rng)
				q64 := make([]float64, len(q.Data))
				mathx.Widen(q64, q.Data)
				for layer := 0; layer < mcfg.Layers; layer++ {
					got := slices.Clone(r.SelectTokens(layer, m.Cache(layer), q, base, model.StageText))
					table := r.HCTable(layer)
					nCands := table.PastClusters()
					counts := make([]int, nCands)
					keys := make([][]float64, mcfg.KVHeads)
					for kvh := range keys {
						keys[kvh] = make([]float64, nCands*headDim)
					}
					for ci := range counts {
						counts[ci] = table.PastCount(ci)
						rep := table.Clusters[ci].RepKey
						for kvh, k := range keys {
							mathx.Widen(k[ci*headDim:(ci+1)*headDim], rep[kvh*headDim:(kvh+1)*headDim])
						}
					}
					mass := make([]float32, nCands)
					var want []int
					for row := 0; row < q.Rows*mcfg.Heads; row++ {
						h := row % mcfg.Heads
						maxv := mathx.ScoreKeys(mass, q64[row*headDim:(row+1)*headDim], keys[h/group], invSqrt)
						mathx.ExpNormalize(mass, mass, maxv)
						sel := wicsum.SelectRowEarlyExit(mass, counts, cfg.ThWics, 20)
						for _, ci := range sel.Selected {
							want = append(want, table.PastTokens(ci)...)
						}
					}
					for tok := max(base-c.window, 0); tok < base; tok++ {
						want = append(want, tok)
					}
					slices.Sort(want)
					want = slices.Compact(want)
					if !slices.Equal(got, want) {
						t.Fatalf("base %d, layer %d: SelectTokens = %v, want %v", base, layer, got, want)
					}
					if len(want) > min(c.window, base) {
						beyondWindow++
					}
				}
			}
			if beyondWindow == 0 {
				t.Fatal("no selection reached past the recent window")
			}
		})
	}
}

func TestReSVDeterministicAcrossRuns(t *testing.T) {
	run := func() []int {
		mcfg := model.DefaultConfig()
		m := model.New(mcfg)
		r := New(mcfg, DefaultConfig())
		rng := mathx.NewRNG(9)
		frames := driftFrames(4, 5, mcfg.Dim, 0.97, rng)
		for _, f := range frames[:3] {
			m.Forward(f, r, model.StageFrame, false)
		}
		return r.SelectTokens(1, m.Cache(1), frames[3], m.Pos(), model.StageFrame)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("selection lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("selections differ across identical runs")
		}
	}
}

func TestReSVLowerThresholdSelectsFewer(t *testing.T) {
	run := func(th float64) float64 {
		mcfg := model.DefaultConfig()
		m := model.New(mcfg)
		cfg := DefaultConfig()
		cfg.ThWics = th
		r := New(mcfg, cfg)
		rng := mathx.NewRNG(10)
		for _, f := range driftFrames(8, 6, mcfg.Dim, 0.95, rng) {
			m.Forward(f, r, model.StageFrame, false)
		}
		return r.Stats().Frame.RetrievalRatio()
	}
	low, high := run(0.3), run(0.95)
	if low >= high {
		t.Fatalf("ratio(0.3)=%v should be < ratio(0.95)=%v", low, high)
	}
}

func TestReSVTextStageTracked(t *testing.T) {
	mcfg := model.DefaultConfig()
	m := model.New(mcfg)
	r := New(mcfg, DefaultConfig())
	rng := mathx.NewRNG(11)
	for _, f := range driftFrames(4, 6, mcfg.Dim, 0.97, rng) {
		m.Forward(f, r, model.StageFrame, false)
	}
	m.Forward(frameInput(3, mcfg.Dim, rng), r, model.StageText, false)
	if r.Stats().Text.CandidateTokens == 0 {
		t.Fatal("text stage stats not recorded")
	}
}

func TestRatioValue(t *testing.T) {
	if (Ratio{}).Value() != 1 {
		t.Fatal("empty ratio should be 1")
	}
	if (Ratio{Selected: 1, Candidate: 4}).Value() != 0.25 {
		t.Fatal("ratio arithmetic wrong")
	}
}

func TestStageStatsHelpers(t *testing.T) {
	s := StageStats{SelectedTokens: 30, CandidateTokens: 100, ExaminedFraction: 0.32, Calls: 2}
	if s.RetrievalRatio() != 0.3 {
		t.Fatal("retrieval ratio wrong")
	}
	if s.AvgExaminedFraction() != 0.16 {
		t.Fatal("examined fraction wrong")
	}
	var empty StageStats
	if empty.RetrievalRatio() != 1 || empty.AvgExaminedFraction() != 0 {
		t.Fatal("empty stage stats wrong")
	}
}

func TestReSVResetMatchesFresh(t *testing.T) {
	mcfg := model.DefaultConfig()
	rng := mathx.NewRNG(31)
	frames := driftFrames(4, 5, mcfg.Dim, 0.97, rng)

	run := func(r *ReSV) []int {
		m := model.New(mcfg)
		for _, f := range frames[:3] {
			m.Forward(f, r, model.StageFrame, false)
		}
		return r.SelectTokens(0, m.Cache(0), frames[3], m.Pos(), model.StageFrame)
	}

	used := New(mcfg, DefaultConfig())
	run(used) // dirty the state
	used.Reset()
	got := append([]int(nil), run(used)...)
	want := run(New(mcfg, DefaultConfig()))
	if len(got) != len(want) {
		t.Fatalf("reset selection length %d vs fresh %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatal("reset instance diverges from fresh instance")
		}
	}
}

// TestReSVResetClearsStats pins the rest of the "reset equals fresh"
// contract: statistics zeroed, and the reset instance serves a fresh session
// with the same statistics as a new one.
func TestReSVResetClearsStats(t *testing.T) {
	mcfg := model.DefaultConfig()
	session := func(r *ReSV, seed uint64) {
		m := model.New(mcfg)
		for _, f := range driftFrames(6, 6, mcfg.Dim, 0.9, mathx.NewRNG(seed)) {
			m.Forward(f, r, model.StageFrame, false)
		}
	}
	r := New(mcfg, DefaultConfig())
	session(r, 33)
	if r.Stats().Frame.Calls == 0 {
		t.Fatal("precondition: session should have selected")
	}
	r.Reset()
	st := r.Stats()
	if st.Frame.Calls != 0 || st.Frame.SelectedTokens != 0 || st.Text.Calls != 0 {
		t.Fatalf("reset retains stage stats: %+v", st.Frame)
	}
	for _, pl := range st.PerLayer {
		if pl.Selected != 0 || pl.Candidate != 0 {
			t.Fatal("reset retains per-layer stats")
		}
	}
	for _, ph := range st.PerHead {
		if ph.Selected != 0 || ph.Candidate != 0 {
			t.Fatal("reset retains per-head stats")
		}
	}
	// The reset instance serves a fresh session exactly as a new one does.
	session(r, 34)
	fresh := New(mcfg, DefaultConfig())
	session(fresh, 34)
	if !reflect.DeepEqual(r.Stats(), fresh.Stats()) {
		t.Fatalf("reset stats %+v differ from fresh %+v", r.Stats().Frame, fresh.Stats().Frame)
	}
}
