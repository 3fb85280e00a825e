package serve

import (
	"math"

	"vrex/internal/accuracy"
	"vrex/internal/degrade"
)

// degradePlane is the per-run state of the accuracy-aware graceful-
// degradation plane (Config.Degrade): per-session quantized levels,
// deadline-streak signals and proxy accounting. A nil *degradePlane disables
// the plane.
type degradePlane struct {
	pol *degrade.Policy
	// level is each session's quantized degradation level (0 = full budget).
	level []int
	// lastLat is each session's last frame completion latency (NaN until the
	// first frame serves) — the deadline controller's slack input.
	lastLat []float64
	// miss / meet count consecutive frames past / within the class deadline.
	miss, meet []int
	// budgetSum / retainSum / servedN accumulate the per-served-item budget
	// scale and proxy retention for the MeanBudget / AccuracyProxy metrics.
	budgetSum, retainSum []float64
	servedN              []int
}

// newDegradePlane builds the plane for a run, or returns nil when disabled;
// the config has already passed validate.
func newDegradePlane(cfg Config, nSessions int) *degradePlane {
	if cfg.Degrade == nil {
		return nil
	}
	p := &degradePlane{
		pol:       cfg.Degrade,
		level:     make([]int, nSessions),
		lastLat:   make([]float64, nSessions),
		miss:      make([]int, nSessions),
		meet:      make([]int, nSessions),
		budgetSum: make([]float64, nSessions),
		retainSum: make([]float64, nSessions),
		servedN:   make([]int, nSessions),
	}
	for s := range p.lastLat {
		p.lastLat[s] = math.NaN()
	}
	return p
}

// budgetOf returns session s's current budget scale (1 with the plane
// disabled or at level 0). Every step the engine prices for s carries it as
// the request's hwsim.StepReq.RatioScale, so a degraded session's frames,
// queries and memory admission are all cheaper at once.
func (e *engine) budgetOf(s int) float64 {
	if e.deg == nil {
		return 1
	}
	return e.deg.pol.Budget(e.deg.level[s])
}

// degradeSignals samples the controller inputs for session s on device d at
// time `at`: KV-pool headroom and paging churn (benign defaults with the
// pressure plane disabled), deadline slack from the last served frame, and
// the miss/meet streaks.
func (e *engine) degradeSignals(s, d int, at float64) degrade.Signals {
	dp := e.deg
	sig := degrade.Signals{Session: s, Budget: e.budgetOf(s), FreePageFrac: 1}
	if e.plane != nil {
		pool := e.plane.pools[d]
		if cp := pool.CapacityPages(); cp > 0 {
			sig.FreePageFrac = float64(pool.FreePages()) / float64(cp)
		}
		if at > 0 {
			st := pool.Stats()
			sig.PagingRate = float64(st.PagesIn+st.PagesOut) / at
		}
	}
	slo := e.slo[e.sessions[s].class]
	sig.Slack = slo
	if !math.IsNaN(dp.lastLat[s]) {
		sig.Slack = slo - dp.lastLat[s]
	}
	sig.MissStreak = dp.miss[s]
	sig.MeetStreak = dp.meet[s]
	return sig
}

// degradeDecide runs one controller decision for session s on device d: ask
// the controller for a target budget, move the session's level at most one
// quantized step toward it (degrade.Policy.Decide never overshoots, so a
// fixed target converges monotonically and cannot oscillate), and account
// the transition on the session, device and observer. Both event loops call
// it at every frame admission and query service, before pricing, so the
// decision always applies to the step it gates.
func (e *engine) degradeDecide(s, d int, at float64) {
	dp := e.deg
	if dp == nil {
		return
	}
	target := dp.pol.Target(e.degradeSignals(s, d, at))
	dir := dp.pol.Decide(dp.level[s], target)
	if dir == 0 {
		return
	}
	before := dp.pol.Budget(dp.level[s])
	dp.level[s] += dir
	after := dp.pol.Budget(dp.level[s])
	if dir > 0 {
		e.metrics[s].Degradations++
		e.devMetrics[d].Degradations++
		if dp.level[s] == 1 {
			e.devs[d].DegradedSessions++
		}
		e.observeDegrade(EventDegraded, at, s, before, after)
	} else {
		e.metrics[s].Restorations++
		e.devMetrics[d].Restorations++
		if dp.level[s] == 0 {
			e.devs[d].DegradedSessions--
		}
		e.observeDegrade(EventRestored, at, s, before, after)
	}
}

// degradeServed folds one served frame or query into the plane's accounting:
// the item was served at the session's current budget, so the budget and its
// proxy retention accumulate toward MeanBudget / AccuracyProxy, and frames
// update the deadline streaks the deadline controller reads.
func (e *engine) degradeServed(s int, lat float64, frame bool) {
	dp := e.deg
	if dp == nil {
		return
	}
	b := dp.pol.Budget(dp.level[s])
	dp.budgetSum[s] += b
	dp.retainSum[s] += accuracy.BudgetRetention(b)
	dp.servedN[s]++
	if frame {
		if lat > e.slo[e.sessions[s].class] {
			dp.miss[s]++
			dp.meet[s] = 0
		} else {
			dp.meet[s]++
			dp.miss[s] = 0
		}
		dp.lastLat[s] = lat
	}
}

// observeDegrade emits a budget-transition event with the budget scale
// before and after the step.
func (e *engine) observeDegrade(kind EventKind, at float64, s int, before, after float64) {
	if e.cfg.Observer == nil {
		return
	}
	e.cfg.Observer.Observe(Event{
		Kind: kind, Time: at, Session: s,
		Class: e.classes[e.sessions[s].class].Name, Device: e.sessions[s].device,
		Latency: latencyNone, KV: e.kv[s],
		BudgetBefore: before, BudgetAfter: after,
	})
}
