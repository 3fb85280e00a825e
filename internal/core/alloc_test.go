package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"testing"

	"vrex/internal/mathx"
	"vrex/internal/model"
	"vrex/internal/tensor"
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

// TestForwardReSVAllocsGolden pins the allocations of the forward pass with
// ReSV: streamed once, resv-stream's verify session grows every buffer the
// model, its caches, the HC tables and ReSV's scratch reuse; after Reset of
// the model and ReSV, a replay of the session must allocate exactly 2
// objects per frame, the returned Hidden's header and data, and end in the
// session's pinned hidden-state digest (TestReSVStatsPinned). It runs on
// one worker, as perfbench does, so no fan-out allocates, and counts on one
// P, as testing.AllocsPerRun does. The runtime's own goroutines still add
// an object now and then to the process-wide count (1 to 5 in some runs,
// more often under -race), so the count is the fewest of three replays.
func TestForwardReSVAllocsGolden(t *testing.T) {
	tensor.SetWorkers(1)
	defer tensor.SetWorkers(0)
	mcfg := model.DefaultConfig()
	frames := verifySession(mcfg)
	cfg := DefaultConfig()
	cfg.Workers = 1
	m, r := model.New(mcfg), New(mcfg, cfg)
	for _, f := range frames {
		m.Forward(f, r, model.StageFrame, false)
	}
	hidden := make([]*tensor.Matrix, len(frames))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fewest := uint64(math.MaxUint64)
	for rep := 0; rep < 3; rep++ {
		m.Reset()
		r.Reset()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, f := range frames {
			hidden[i] = m.Forward(f, r, model.StageFrame, false).Hidden
		}
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
		h := fnv.New64a()
		for _, hm := range hidden {
			binary.Write(h, binary.LittleEndian, hiddenDigest(hm))
		}
		if d := h.Sum64(); d != 0x87caa204721b78bb {
			t.Fatalf("replay %d's hidden-state digest %#x, want %#x", rep, d, uint64(0x87caa204721b78bb))
		}
	}
	if want := uint64(2 * len(frames)); fewest != want {
		t.Errorf("replays of %d frames allocated at fewest %d objects, want %d (2 per frame)", len(frames), fewest, want)
	}
}
