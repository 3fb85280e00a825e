package experiments

import (
	"fmt"

	"vrex/internal/degrade"
	"vrex/internal/hwsim"
	"vrex/internal/kvpool"
	"vrex/internal/report"
	"vrex/internal/serve"
)

// paretoDegraders is the degradation-controller axis of the sweep; "none"
// is the undegraded reference point every frontier row is judged against.
var paretoDegraders = []string{
	"none",
	"static(budget=0.5)",
	"pressure",
	"deadline",
	"hybrid",
}

// paretoConfig builds one operating point of the Pareto sweep: a KV-starved
// two-class flash crowd on the edge V-Rex8 where the pool thrashes and
// deadlines slip — the regime the degradation plane exists for. The
// scheduler, eviction and degrader axes plug into an otherwise identical
// scenario so every row of the frontier is load-for-load comparable.
func paretoConfig(opts Options, scheduler, evict, degrader string, duration float64, streams int) serve.Config {
	sched, err := serve.ParseScheduler(scheduler)
	if err != nil {
		panic(fmt.Sprintf("experiments: pareto scheduler %q: %v", scheduler, err))
	}
	sp, err := kvpool.ParseSpill(fmt.Sprintf("spill(evict=%s,pages=8)", evict))
	if err != nil {
		panic(fmt.Sprintf("experiments: pareto eviction %q: %v", evict, err))
	}
	dp, err := degrade.Parse(degrader)
	if err != nil {
		panic(fmt.Sprintf("experiments: pareto degrader %q: %v", degrader, err))
	}
	inter := serve.DefaultStreamConfig()
	inter.QueryEvery = 0
	inter.StartKV = 24000
	back := inter
	back.StartKV = 48000
	return serve.Config{
		Dev: hwsim.VRex8(), Pol: hwsim.ReSVModel(),
		Streams: streams, Duration: duration,
		Classes: []serve.StreamClass{
			{Name: "interactive", Weight: 0.4, Stream: inter, SLO: 0.6, Priority: 0},
			{Name: "background", Weight: 0.6, Stream: back, SLO: 2, Priority: 1},
		},
		// Long-context sessions (24K/48K KV) make attention + KV fetch the
		// dominant frame cost, so shrinking the retrieval budget buys real
		// latency back. The base population saturates the device at full
		// budget and leaves the pool below the pressure threshold; churn
		// arrivals overflow it — the regime the degradation plane exists
		// for. The class KV sizes differ so the eviction policy has a real
		// choice of victim when the pool spills.
		Churn:         serve.ChurnConfig{ArrivalRate: 0.12, MeanLifetime: duration * 0.25},
		KV:            serve.KVConfig{Capacity: 10e9, Spill: sp},
		Scheduler:     serve.SchedulerConfig{Policy: sched, BatchMax: 4},
		Balancer:      serve.NewKVPressure(),
		Degrade:       dp,
		DropThreshold: 4, Seed: opts.Seed, Workers: opts.Parallel,
	}
}

// ParetoFrontier sweeps scheduler x eviction x degradation controller over a
// KV-starved flash crowd and emits the accuracy-vs-SLO frontier: each
// degrader trades retained accuracy proxy (1 at full retrieval budget) for
// deadline attainment by shrinking pressured sessions' budgets. The frontier
// table shows where each controller lands; the reference "none" rows are the
// undegraded corner (accuracy 1, worst attainment under pressure). The second
// table isolates the headline operating point (edf + lru) and reports each
// controller's deltas against "none" — the degraders worth shipping dominate
// it on SLO attainment at a bounded accuracy cost.
func ParetoFrontier(opts Options) []*report.Table {
	duration := 20.0
	streams := 2
	if opts.Quick {
		duration = 12
		streams = 2
	}
	schedulers := []string{"fifo", "edf"}
	evictions := []string{"lru", "largest"}

	type point struct{ sched, evict, deg string }
	results := map[point]serve.Result{}
	run := func(sched, evict, deg string) serve.Result {
		key := point{sched, evict, deg}
		res, ok := results[key]
		if !ok {
			res = serve.Run(paretoConfig(opts, sched, evict, deg, duration, streams))
			results[key] = res
		}
		return res
	}

	frontier := report.NewTable(
		"Pareto: accuracy proxy vs SLO attainment under a KV-starved flash crowd (V-Rex8 + ReSV, 24K/48K KV, 10 GB pool)",
		"scheduler", "evict", "degrade", "slo_pct", "acc_proxy", "mean_budget",
		"degradations", "restorations", "dropped_pct", "p99_ms", "util_pct")
	for _, sched := range schedulers {
		for _, evict := range evictions {
			for _, deg := range paretoDegraders {
				res := run(sched, evict, deg)
				agg := res.Aggregate
				acc, budget := agg.AccuracyProxy, agg.MeanBudget
				if deg == "none" {
					// The disabled plane reports zeros; the frontier's
					// reference corner is full budget, full accuracy.
					acc, budget = 1, 1
				}
				frontier.AddRow(sched, evict, deg, 100*agg.SLOAttained, acc, budget,
					agg.Degradations, agg.Restorations, 100*agg.DropRate,
					1000*agg.P99, 100*res.Utilization)
			}
		}
	}

	// Headline point: deadline-aware scheduling + LRU eviction, each degrader
	// against the undegraded reference.
	base := run("edf", "lru", "none").Aggregate
	deltas := report.NewTable(
		"Pareto: degrader deltas vs none at the edf + lru operating point",
		"degrade", "slo_pct", "d_slo_pp", "acc_proxy", "d_acc", "goodput_fps", "interactive_slo_pct")
	for _, deg := range paretoDegraders {
		res := run("edf", "lru", deg)
		agg := res.Aggregate
		acc := agg.AccuracyProxy
		if deg == "none" {
			acc = 1
		}
		deltas.AddRow(deg, 100*agg.SLOAttained, 100*(agg.SLOAttained-base.SLOAttained),
			acc, acc-1, agg.Goodput, 100*res.PerClass[0].SLOAttained)
	}
	return []*report.Table{frontier, deltas}
}
