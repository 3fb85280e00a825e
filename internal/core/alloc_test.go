package core

import (
	"slices"
	"testing"

	"vrex/internal/mathx"
	"vrex/internal/model"
)

// TestSelectTokensSteadyStateAllocFree pins the tentpole guarantee: once a
// session's scratch arenas are warm, the sequential SelectTokens hot path
// performs zero heap allocations per call. Any future change that
// reintroduces per-frame allocation (score rows, token sets, sort closures,
// layout rebuilds) fails this test.
func TestSelectTokensSteadyStateAllocFree(t *testing.T) {
	mcfg := model.DefaultConfig()
	cfg := DefaultConfig()
	cfg.Workers = 1
	m := model.New(mcfg)
	r := New(mcfg, cfg)
	rng := mathx.NewRNG(21)
	for _, f := range driftFrames(6, 6, mcfg.Dim, 0.97, rng) {
		m.Forward(f, r, model.StageFrame, false)
	}
	base := m.Pos()
	q := frameInput(3, mcfg.Dim, rng)
	// Warm the arenas (first call at this base may still grow buffers).
	for i := 0; i < 3; i++ {
		r.SelectTokens(0, m.Cache(0), q, base, model.StageFrame)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.SelectTokens(0, m.Cache(0), q, base, model.StageFrame)
	})
	if allocs != 0 {
		t.Fatalf("steady-state SelectTokens allocates %v times per call, want 0", allocs)
	}
}

// TestSelectTokensAllocFreeEarlyExitAndExact selects for a deeper layer in
// the text stage with a recent window, which marks tokens outside the
// selected clusters, through the WTU's early exit, the one sorter
// SelectTokens runs. Warm calls must allocate nothing and return exactly the
// tokens of the cold first call: reusing the arenas must not change a
// selection.
func TestSelectTokensAllocFreeEarlyExitAndExact(t *testing.T) {
	mcfg := model.DefaultConfig()
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.RecentWindow = 4
	m := model.New(mcfg)
	r := New(mcfg, cfg)
	rng := mathx.NewRNG(22)
	for _, f := range driftFrames(5, 6, mcfg.Dim, 0.97, rng) {
		m.Forward(f, r, model.StageFrame, false)
	}
	base := m.Pos()
	q := frameInput(2, mcfg.Dim, rng)
	cold := slices.Clone(r.SelectTokens(1, m.Cache(1), q, base, model.StageText))
	for i := 0; i < 3; i++ {
		if got := r.SelectTokens(1, m.Cache(1), q, base, model.StageText); !slices.Equal(got, cold) {
			t.Fatalf("warm call %d selected %v, cold call %v", i, got, cold)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.SelectTokens(1, m.Cache(1), q, base, model.StageText)
	})
	if allocs != 0 {
		t.Fatalf("steady-state SelectTokens allocates %v times per call, want 0", allocs)
	}
	if got := r.SelectTokens(1, m.Cache(1), q, base, model.StageText); !slices.Equal(got, cold) {
		t.Fatalf("after the warm calls selected %v, cold call %v", got, cold)
	}
}
