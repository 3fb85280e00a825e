package serve

import (
	"reflect"
	"testing"

	"vrex/internal/mathx"
	"vrex/internal/parallel"
)

// TestHookPoissonExponentialEquivalence proves the hook seams sit exactly on
// the built-in draws: hooks that re-implement the Poisson arrival process,
// the exponential lifetime draw and the weighted class draw with the same
// RNG consumption produce a byte-identical Result to the nil-hook config.
func TestHookPoissonExponentialEquivalence(t *testing.T) {
	base := mixConfig(4, 2)
	base.Duration = 12
	base.Churn = ChurnConfig{ArrivalRate: 0.8, MeanLifetime: 5}
	want := Run(base)

	hooked := base
	hooked.Churn.Arrivals = func(rng *mathx.RNG, duration float64) []float64 {
		var times []float64
		for at := rng.Exp(1 / base.Churn.ArrivalRate); at < duration; at += rng.Exp(1 / base.Churn.ArrivalRate) {
			times = append(times, at)
		}
		return times
	}
	hooked.Churn.Lifetime = func(rng *mathx.RNG, ordinal int, start float64) float64 {
		return rng.Exp(base.Churn.MeanLifetime)
	}
	classes := base.Classes
	var total float64
	for _, c := range classes {
		total += c.Weight
	}
	hooked.Churn.Class = func(rng *mathx.RNG, ordinal int, start float64) int {
		x := rng.Float64() * total
		for c := range classes {
			x -= classes[c].Weight
			if x < 0 {
				return c
			}
		}
		return len(classes) - 1
	}
	got := Run(hooked)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("hook reimplementation of Poisson/exponential churn diverged from the built-in path")
	}
}

// TestHookRNGFreshPerDraw: every Class and Lifetime call sees the stream a
// fresh NewRNG of the replaced draw's seed gives, although Run reuses one
// RNG for them. Each hook draws one Norm, which leaves a cached variate
// behind, so a reuse that kept the previous call's state would hand the
// next call that variate instead.
func TestHookRNGFreshPerDraw(t *testing.T) {
	cfg := mixConfig(4, 1)
	cfg.Duration = 10
	cfg.Churn.Arrivals = func(rng *mathx.RNG, duration float64) []float64 { return []float64{1, 2, 3} }
	var classDraws, lifeDraws []float64
	cfg.Churn.Class = func(rng *mathx.RNG, ordinal int, start float64) int {
		classDraws = append(classDraws, rng.Norm())
		return 0
	}
	cfg.Churn.Lifetime = func(rng *mathx.RNG, ordinal int, start float64) float64 {
		lifeDraws = append(lifeDraws, rng.Norm())
		return 0
	}
	Run(cfg)
	var wantClass, wantLife []float64
	for _, d := range []struct {
		domain uint64
		n      int
	}{{cfg.Seed, cfg.Streams}, {cfg.Seed ^ churnSessionSalt, 3}} {
		for i := 0; i < d.n; i++ {
			wantClass = append(wantClass, mathx.NewRNG(parallel.SeedFor(d.domain^classSeedSalt, i)).Norm())
			wantLife = append(wantLife, mathx.NewRNG(parallel.SeedFor(d.domain^lifeSeedSalt, i)).Norm())
		}
	}
	if !reflect.DeepEqual(classDraws, wantClass) || !reflect.DeepEqual(lifeDraws, wantLife) {
		t.Fatalf("hook draws class %v, lifetime %v; fresh RNGs draw %v, %v", classDraws, lifeDraws, wantClass, wantLife)
	}
}

// TestHookLifetimeNonPositiveMeansWholeRun pins the sentinel: a Lifetime hook
// returning 0 keeps the session for the rest of the run.
func TestHookLifetimeNonPositiveMeansWholeRun(t *testing.T) {
	cfg := mixConfig(3, 1)
	cfg.Duration = 10
	cfg.Churn.Lifetime = func(rng *mathx.RNG, ordinal int, start float64) float64 { return 0 }
	res := Run(cfg)
	for s, m := range res.PerStream {
		if m.AchievedFPS == 0 && m.FramesArrived == 0 {
			t.Fatalf("session %d saw no frames: lifetime sentinel truncated the run", s)
		}
	}
}

// TestHookArrivalsSkipsOutOfWindowTimes checks that arrival times outside
// [0, Duration) are dropped while later ordinals keep their seeds and
// classes — a trace replayed under a shorter duration keeps its survivors.
func TestHookArrivalsSkipsOutOfWindowTimes(t *testing.T) {
	cfg := mixConfig(0, 1)
	cfg.Duration = 10
	cfg.Churn.Arrivals = func(rng *mathx.RNG, duration float64) []float64 {
		return []float64{-1, 2, 99, 4}
	}
	res := Run(cfg)
	if got := len(res.PerStream); got != 2 {
		t.Fatalf("expected 2 in-window sessions, got %d", got)
	}

	// The surviving ordinals (1 and 3) must be seeded as ordinals 1 and 3,
	// not renumbered: compare against a run whose hook only emits them.
	direct := cfg
	direct.Churn.Arrivals = func(rng *mathx.RNG, duration float64) []float64 {
		return []float64{-1, 2, -1, 4}
	}
	if !reflect.DeepEqual(Run(direct), res) {
		t.Fatal("out-of-window arrivals perturbed surviving sessions' identities")
	}
}

// TestHookClassOutOfRangePanics pins the contract violation loudly.
func TestHookClassOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Churn.Class index must panic")
		}
	}()
	cfg := mixConfig(1, 1)
	cfg.Duration = 2
	cfg.Churn.Class = func(rng *mathx.RNG, ordinal int, start float64) int { return 99 }
	Run(cfg)
}

// TestHookWorkerInvariance: hook-driven session populations stay
// byte-identical across worker counts, like every other serve path.
func TestHookWorkerInvariance(t *testing.T) {
	cfg := mixConfig(2, 2)
	cfg.Duration = 10
	cfg.Churn.Arrivals = func(rng *mathx.RNG, duration float64) []float64 {
		var times []float64
		for at := rng.Exp(1.3); at < duration; at += rng.Exp(1.3) {
			times = append(times, at)
		}
		return times
	}
	cfg.Churn.Lifetime = func(rng *mathx.RNG, ordinal int, start float64) float64 {
		return 1 + 4*rng.Float64()
	}
	cfg.Workers = 1
	want := Run(cfg)
	for _, w := range []int{4, parallel.Workers(0)} {
		c := cfg
		c.Workers = w
		if got := Run(c); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d diverged from sequential run", w)
		}
	}
}
