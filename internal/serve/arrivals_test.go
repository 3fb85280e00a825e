package serve

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"vrex/internal/hwsim"
	"vrex/internal/mathx"
	"vrex/internal/parallel"
)

// arrival is one popped arrival or controller tick: its time's bits, its
// session (-1 for a tick) and its kind.
type arrival struct {
	bits    uint64
	session int
	kind    int
}

// lazyArrivals drains the engine's own arrival source — seedEvents plus
// session.advance after every popped arrival — without the device loop, and
// checks the heap never outgrows its pre-sized capacity.
func lazyArrivals(t *testing.T, cfg Config) []arrival {
	t.Helper()
	sessions := buildSessions(cfg, cfg.Classes)
	h, _ := seedEvents(sessions, cfg.Control, cfg.Duration, 1)
	capacity := cap(h)
	var out []arrival
	for len(h) > 0 {
		ev := h.pop()
		out = append(out, arrival{math.Float64bits(ev.at), ev.session, ev.kind})
		if ev.kind < arrivalKinds {
			sessions[ev.session].advance(&h, ev)
		}
		if cap(h) != capacity {
			t.Fatalf("event heap grew from capacity %d to %d", capacity, cap(h))
		}
	}
	return out
}

// materialisedArrivals is the reference order: the whole schedule built up
// front, each session's [start, frames..., queries..., end] block from its
// first frame and query times, numbered in concatenation order, the
// controller ticks numbered above every block, and everything sorted by
// (time, number).
func materialisedArrivals(cfg Config, sessions []session) []arrival {
	type numbered struct {
		at  float64
		seq int
		arrival
	}
	var evs []numbered
	add := func(at float64, s, kind int) {
		evs = append(evs, numbered{at, len(evs), arrival{math.Float64bits(at), s, kind}})
	}
	for s, sess := range sessions {
		sc := cfg.Classes[sess.class].Stream
		add(sess.start, s, evStart)
		interval := 1 / sc.FPS
		for t := sess.frameAt; t < sess.end; t += interval {
			add(t, s, evFrame)
		}
		if sc.QueryEvery > 0 {
			for t := sess.queryAt; t < sess.end; t += sc.QueryEvery {
				add(t, s, evQuery)
			}
		}
		add(sess.end, s, evEnd)
	}
	if cfg.Control.enabled() {
		for _, t := range cfg.Control.tickTimes(cfg.Duration) {
			add(t, -1, evControl)
		}
	}
	slices.SortFunc(evs, func(a, b numbered) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	})
	out := make([]arrival, len(evs))
	for i, ev := range evs {
		out[i] = ev.arrival
	}
	return out
}

// arrivalConfigs are tie-heavy configurations for the arrival-order test.
func arrivalConfigs() (clipped, hooks Config) {
	two := []StreamClass{
		{Name: "a", Weight: 2, Stream: StreamConfig{FPS: 2, TokensPerFrame: 10, QueryEvery: 1}},
		{Name: "b", Weight: 1, Stream: StreamConfig{FPS: 1, TokensPerFrame: 10, QueryEvery: 1.5}},
	}
	noop := func(float64, *FleetOps) {}

	// Every session stays to the end of the run, so all ends coincide at
	// Duration; the initial sessions all start at t=0, where a tick lands.
	clipped = baseConfig(hwsim.VRex8(), hwsim.ReSVModel(), 5)
	clipped.Duration = 6
	clipped.Classes = two
	clipped.Churn = ChurnConfig{ArrivalRate: 2}
	clipped.Control = ControlConfig{Interval: 1.5, At: []float64{0, 3}, Controller: noop}

	// At 2^51 a float64's spacing is 0.5, so a session starting there has
	// its frames and queries rounded onto one 0.5 s grid: frame/query ties
	// within a session, and frame/query ties across sessions arriving
	// together. The hooks add sessions arriving together at small times, an
	// initial session's end coinciding with churned starts (t=3), arrival
	// times outside the window (skipped), a zero-width session (end ==
	// start) and one too short for any frame.
	big := math.Ldexp(1, 51)
	hooks = baseConfig(hwsim.VRex8(), hwsim.ReSVModel(), 3)
	hooks.Duration = big + 16
	hooks.Classes = two
	hooks.Churn = ChurnConfig{
		Arrivals: func(*mathx.RNG, float64) []float64 {
			return []float64{0, 0, 1, 1, 3, -1, 3, big, big, big, big + 2, big + 20, big + 2}
		},
		Lifetime: func(_ *mathx.RNG, ordinal int, start float64) float64 {
			switch {
			case start == 1 && ordinal == 2:
				return 1e-300 // end == start
			case start == 1 && ordinal == 3:
				return 1e-9 // too short for any frame
			}
			return 3
		},
	}
	hooks.Control = ControlConfig{At: []float64{0, 1, 3, big, big + 2}, Controller: noop}
	return clipped, hooks
}

// TestLazyArrivalsMatchMaterialisedSchedule: generating each session's
// arrivals on demand yields exactly the (time bits, session, kind) sequence
// of the materialised schedule, ties included, and each session's jitter is
// drawn frame phase first, then the first query's offset.
func TestLazyArrivalsMatchMaterialisedSchedule(t *testing.T) {
	clipped, hooks := arrivalConfigs()
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"clipped", clipped}, {"hooks", hooks}} {
		cfg := c.cfg
		t.Run(c.name, func(t *testing.T) {
			sessions := buildSessions(cfg, cfg.Classes)
			for s := 0; s < cfg.Streams; s++ {
				sc := cfg.Classes[sessions[s].class].Stream
				rng := mathx.NewRNG(parallel.SeedFor(cfg.Seed, s))
				phase := rng.Float64() * (1 / sc.FPS)
				wantQuery := math.Inf(1)
				if sc.QueryEvery > 0 {
					wantQuery = sessions[s].start + sc.QueryEvery*(0.5+rng.Float64())
				}
				if got := sessions[s]; got.frameAt != sessions[s].start+phase || got.queryAt != wantQuery {
					t.Fatalf("session %d: first frame %v, query %v; want %v, %v", s, got.frameAt, got.queryAt, sessions[s].start+phase, wantQuery)
				}
			}
			want := materialisedArrivals(cfg, sessions)
			got := lazyArrivals(t, cfg)
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("arrival %d: got %+v at %v, want %+v at %v", i,
						got[i], math.Float64frombits(got[i].bits), want[i], math.Float64frombits(want[i].bits))
				}
			}
			if len(got) != len(want) {
				t.Fatalf("got %d arrivals, want %d", len(got), len(want))
			}
			// The config must actually exercise same-instant ordering.
			ties := map[[2]int]int{}
			for i := 1; i < len(want); i++ {
				if a, b := want[i-1], want[i]; a.bits == b.bits {
					same := 0
					if a.session == b.session {
						same = 1
					}
					ties[[2]int{same, a.kind*8 + b.kind}]++
				}
			}
			if len(ties) < 3 {
				t.Fatalf("only %d kinds of same-instant pair: %v", len(ties), ties)
			}
			if c.name == "hooks" && ties[[2]int{1, evFrame*8 + evQuery}] == 0 {
				t.Fatalf("no same-session frame/query tie: %v", ties)
			}
		})
	}
}
