// Package experiments contains one runner per table and figure of the
// paper's evaluation (and motivation) sections. Each runner returns
// report.Tables whose rows are the series the paper plots; cmd/vrex-bench
// and bench_test.go drive them, and EXPERIMENTS.md records paper-vs-measured
// values.
package experiments

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"vrex/internal/accuracy"
	"vrex/internal/core"
	"vrex/internal/model"
	"vrex/internal/parallel"
	"vrex/internal/report"
	"vrex/internal/workload"
)

// Options tunes experiment cost; the defaults match EXPERIMENTS.md.
type Options struct {
	// Sessions per task family for accuracy experiments.
	Sessions int
	// Seed for all functional-plane randomness.
	Seed uint64
	// Quick shrinks functional workloads for smoke tests and benchmarks.
	Quick bool
	// Parallel is the worker count for experiment dispatch (RunMany)
	// and is threaded into the runners' inner kernels: 0 uses GOMAXPROCS,
	// 1 restores fully sequential execution. Output is identical either way.
	Parallel int
}

// workers resolves the Options worker count for fan-out sites.
func (o Options) workers() int { return parallel.Workers(o.Parallel) }

// resvConfig returns the paper-default ReSV configuration with the
// experiment's worker count threaded into the kernel shards.
func (o Options) resvConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Workers = o.Parallel
	return cfg
}

// evaluator builds an accuracy evaluator that shares the experiment's worker
// count for session-level fan-out.
func (o Options) evaluator(mcfg model.Config, wcfg workload.Config) *accuracy.Evaluator {
	ev := accuracy.NewEvaluator(mcfg, wcfg, o.sessions())
	ev.Workers = o.Parallel
	return ev
}

func (o Options) sessions() int {
	if o.Sessions > 0 {
		if o.Quick && o.Sessions > 2 {
			return 2
		}
		return o.Sessions
	}
	if o.Quick {
		return 2
	}
	return 10
}

// Runner produces the tables for one experiment.
type Runner func(Options) []*report.Table

// registry maps experiment IDs (fig4a, tab2, ...) to runners.
var registry = map[string]Runner{
	"fig4a": Fig4aMemoryFootprint,
	"fig4b": Fig4bLatencyBreakdown,
	"fig4c": Fig4cRetrievalOverhead,
	"fig5":  Fig5Pipeline,
	"fig7":  Fig7Similarity,
	"fig13": Fig13LatencyEnergy,
	"fig14": Fig14E2EBreakdown,
	"fig15": Fig15Throughput,
	"fig16": Fig16Ablation,
	"fig17": Fig17Bandwidth,
	"fig18": Fig18Roofline,
	"fig19": Fig19ReSVAblation,
	"fig20": Fig20RatioDistribution,
	"tab1":  Table1Hardware,
	"tab2":  Table2Accuracy,
	"tab3":  Table3AreaPower,
	// Extensions beyond the paper's artifacts: hyperparameter ablation
	// benches, the serving-scale study, the fleet × balancer × mix sweep
	// built on the Scenario API, the KV memory-pressure study on the
	// kvpool plane, and the continuous-batching SLO sweep on the scheduler
	// plane (see EXPERIMENTS.md).
	"multiturn":    MultiTurnCoherence,
	"sweep-thwics": SweepThWics,
	"sweep-thhd":   SweepThHD,
	"sweep-nhp":    SweepNHp,
	"scale":        ScaleServing,
	"fleet":        FleetServing,
	"memory":       MemoryPressure,
	"slo":          SLOServing,
	"scenarios":    ScenarioSuite,
	"cluster":      ClusterServing,
	"pareto":       ParetoFrontier,
	"telemetry":    TelemetryObservability,
}

// IDs returns the registered experiment IDs, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// RunMany executes the given experiments across opts.Parallel workers and
// writes their rendered tables to w in argument order. Each runner renders
// into a private buffer; the ordered streaming fan-in below emits an
// experiment's output as soon as every earlier id has been written — so the
// concatenation is byte-identical to running the ids sequentially, output is
// progressive rather than held until the slowest runner finishes, and only
// the out-of-order suffix is retained in memory. Unknown ids are rejected
// before any runner starts. After a write error nothing more is written, but
// RunMany still waits for every runner before it returns that error, and a
// runner panic is re-raised on the caller's goroutine.
func RunMany(ids []string, opts Options, w io.Writer, format report.Format) error {
	for _, id := range ids {
		if _, ok := registry[id]; !ok {
			return fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
		}
	}
	type rendered struct {
		idx int
		out []byte
	}
	// Buffered to len(ids): the fan-out supervisor never blocks on send.
	results := make(chan rendered, len(ids))
	wait := parallel.Go(func() {
		defer close(results)
		parallel.ForEach(opts.workers(), len(ids), func(i int) {
			var buf bytes.Buffer
			for _, t := range registry[ids[i]](opts) {
				t.RenderAs(&buf, format)
				fmt.Fprintln(&buf)
			}
			results <- rendered{idx: i, out: buf.Bytes()}
		})
	})
	pending := make(map[int][]byte)
	next := 0
	var err error
	for r := range results {
		if err != nil {
			continue // drain after a write error: the supervisor is joined below
		}
		pending[r.idx] = r.out
		for out, ok := pending[next]; ok; out, ok = pending[next] {
			if _, err = w.Write(out); err != nil {
				break
			}
			delete(pending, next)
			next++
		}
	}
	wait() // re-raises a runner panic with its original value
	return err
}
