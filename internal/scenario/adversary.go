package scenario

import (
	"fmt"
	"math"

	"vrex/internal/mathx"
	"vrex/internal/serve"
)

// SearchOptions configure the adversarial scenario search.
type SearchOptions struct {
	// Rounds is the number of mutation rounds (default 24). Each round
	// evaluates one mutated candidate with a full serving run.
	Rounds int
	// Seed drives both the mutation choices and the candidate evaluations;
	// the whole search is deterministic for a given (base, options) pair.
	Seed uint64
	// Workers is the serve worker count per evaluation (0 = GOMAXPROCS;
	// results are worker-invariant, so this only affects wall time).
	Workers int
}

// maxSearchSessions caps a candidate's expected arrival volume (peak rate x
// duration): the adversary must make the scheduler miss deadlines by
// *shaping* load, not by declaring an unbounded flood.
const maxSearchSessions = 1500

// SearchResult is the outcome of an adversarial search.
type SearchResult struct {
	// Scenario is the most damaging load shape found (base itself when no
	// mutation beat it).
	Scenario *Scenario
	// Score and BaseScore are the damage metric of the winner and of the
	// unmutated base.
	Score     float64
	BaseScore float64
	// Evals counts full serving runs spent (base + accepted candidates).
	Evals int
}

// Score is the damage metric the adversary maximizes: deadline misses plus
// dropped work, plus the shortfall from full SLO attainment (weighted so a
// run that misses everything dominates one that misses a handful).
func Score(res serve.Result) float64 {
	agg := res.Aggregate
	return float64(agg.DeadlineMisses) +
		float64(agg.FramesDropped+agg.QueriesDropped) +
		100*(1-agg.SLOAttained)
}

// Search hill-climbs over base's load-shape parameters — arrival rates,
// flash-crowd placement, diurnal amplitude and phase, heavy-tail shape,
// per-class bursts — looking for the scenario that maximizes deadline damage
// (Score) for base's scheduler spec. The device/policy/scheduler surface is
// never mutated: the adversary attacks the workload, not the system under
// test. Deterministic for a given (base, options) pair.
func Search(base *Scenario, opt SearchOptions) (SearchResult, error) {
	if err := base.Validate(); err != nil {
		return SearchResult{}, err
	}
	if base.Arrival.Kind == "none" || base.Arrival.Kind == "trace" {
		return SearchResult{}, fmt.Errorf("scenario %s: adversarial search needs a stochastic arrival process (poisson, diurnal or flash)", base.Name)
	}
	rounds := opt.Rounds
	if rounds <= 0 {
		rounds = 24
	}
	rng := mathx.NewRNG(opt.Seed)

	eval := func(s *Scenario) (float64, error) {
		cfg, err := s.Config()
		if err != nil {
			return 0, err
		}
		cfg.Workers = opt.Workers
		return Score(serve.Run(cfg)), nil
	}

	out := SearchResult{Scenario: base.Clone()}
	score, err := eval(out.Scenario)
	if err != nil {
		return SearchResult{}, err
	}
	out.Score, out.BaseScore, out.Evals = score, score, 1

	for round := 0; round < rounds; round++ {
		cand := mutate(out.Scenario, rng)
		if cand.rateModel().max()*cand.Duration > maxSearchSessions || cand.Validate() != nil {
			continue // mutation stepped out of range: spend the round, keep the incumbent
		}
		s, err := eval(cand)
		if err != nil {
			return SearchResult{}, err
		}
		out.Evals++
		if s > out.Score {
			out.Scenario, out.Score = cand, s
		}
	}
	out.Scenario.Name = base.Name + "-adv"
	return out, nil
}

// mutate returns a copy of s with one load-shape parameter perturbed. Moves
// are drawn from a fixed menu; infeasible results are filtered by the caller.
func mutate(s *Scenario, rng *mathx.RNG) *Scenario {
	c := s.Clone()
	// up draws a multiplicative step in [1.1, 1.6].
	up := func() float64 { return 1.1 + 0.5*rng.Float64() }
	switch rng.Intn(6) {
	case 0: // push the base arrival rate
		c.Arrival.Rate *= up()
	case 1: // sharpen the time variation of the base process
		switch c.Arrival.Kind {
		case "diurnal":
			c.Arrival.Amp = math.Min(1, c.Arrival.Amp+0.2+0.3*rng.Float64())
			c.Arrival.Phase += (rng.Float64() - 0.5) * c.Arrival.Period / 2
		case "flash":
			c.Arrival.Mult *= up()
			c.Arrival.Dur *= up()
		case "poisson": // morph into a flash crowd
			c.Arrival = ArrivalSpec{
				Kind: "flash", Rate: c.Arrival.Rate,
				At:   rng.Float64() * c.Duration / 2,
				Dur:  c.Duration / 4,
				Mult: 2 + 4*rng.Float64(),
			}
		}
	case 2: // relocate the flash window
		if c.Arrival.Kind == "flash" {
			c.Arrival.At = rng.Float64() * math.Max(0, c.Duration-c.Arrival.Dur)
		}
	case 3: // fatten the lifetime tail (longer sessions pile up concurrency)
		switch c.Lifetime.Kind {
		case "exp":
			c.Lifetime.Mean *= up()
		case "pareto":
			c.Lifetime.Shape = math.Max(1.05, c.Lifetime.Shape/up())
			c.Lifetime.Scale *= up()
		case "lognormal":
			c.Lifetime.Sigma += 0.1 + 0.2*rng.Float64()
		}
	case 4: // intensify an existing burst
		var idx []int
		for i, cl := range c.Classes {
			if cl.Burst != nil {
				idx = append(idx, i)
			}
		}
		if len(idx) > 0 {
			b := c.Classes[idx[rng.Intn(len(idx))]].Burst
			b.Rate *= up()
			b.Dur *= up()
		}
	case 5: // aim a correlated burst at the tightest-deadline class
		tgt := 0
		for i, cl := range c.Classes {
			if cl.SLOms > 0 && (c.Classes[tgt].SLOms <= 0 || cl.SLOms < c.Classes[tgt].SLOms) {
				tgt = i
			}
		}
		dur := c.Duration / 5
		c.Classes[tgt].Burst = &BurstSpec{
			Rate: c.rateModel().max()*0.5 + 0.5,
			At:   rng.Float64() * math.Max(0, c.Duration-dur),
			Dur:  dur,
		}
	}
	return c
}
