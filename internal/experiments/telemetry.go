package experiments

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"vrex/internal/cluster"
	"vrex/internal/degrade"
	"vrex/internal/hwsim"
	"vrex/internal/kvpool"
	"vrex/internal/report"
	"vrex/internal/serve"
	"vrex/internal/telemetry"
)

// TelemetryObservability drives the observability plane end-to-end on one
// stressed scenario and reports what it sees. The scenario is chosen so every
// phase the profiler can attribute actually occurs: a two-node cluster under
// churn with a KV pool tight enough to page (spill + degradation pressure), a
// batching deadline scheduler, and a mid-run node drain whose evacuated
// sessions migrate live. Tables:
//
//   - phase attribution: simulated device-seconds by phase (compute split
//     from hwsim, paging and migration stalls from the engine), totalling the
//     engine-charged time exactly — the simulated-time "profiler" view;
//   - stalls by device: where the paging/migration time sat;
//   - span summary: sessions reconstructed from the event stream, lifecycle
//     balance, per-span tallies against the Result counters, and the peak of
//     the span intervals against the metrics registry's session gauge;
//   - exporter footprint: series/sample counts of the Prometheus exposition
//     and slice/mark counts of the Chrome trace (both deterministic).
func TelemetryObservability(opts Options) []*report.Table {
	duration, devs := 30.0, 4
	rate, life := 25.0, 8.0
	if opts.Quick {
		duration, devs = 12, 2
		rate, life = 12, 4
	}

	classes, err := serve.ParseMix("2fps:0.6,4fps:0.4")
	if err != nil {
		panic(fmt.Sprintf("experiments: telemetry mix: %v", err))
	}
	for i := range classes {
		classes[i].Stream.QueryEvery = 6
		classes[i].Stream.StartKV = 8000
		classes[i].SLO = 0.7
	}
	sched, err := serve.ParseScheduler("edf")
	if err != nil {
		panic(fmt.Sprintf("experiments: telemetry scheduler: %v", err))
	}
	sp, err := kvpool.ParseSpill("spill(evict=lru,pages=8)")
	if err != nil {
		panic(fmt.Sprintf("experiments: telemetry spill: %v", err))
	}
	dp, err := degrade.Parse("pressure(lo=0.2,hi=0.5)")
	if err != nil {
		panic(fmt.Sprintf("experiments: telemetry degrader: %v", err))
	}
	base := serve.Config{
		Pol:     hwsim.ReSVModel(),
		Streams: 8, Duration: duration, Classes: classes,
		Churn: serve.ChurnConfig{ArrivalRate: rate, MeanLifetime: life},
		// ~35 default pages per device: one 8000-token session fits, two
		// thrash — the pool pages and the pressure degrader fires.
		KV:            serve.KVConfig{Capacity: 35 * 256 * 131072, Spill: sp},
		Scheduler:     serve.SchedulerConfig{Policy: sched, BatchMax: 4, SLO: 0.7},
		Degrade:       dp,
		DropThreshold: 4, Seed: opts.Seed, Workers: opts.Parallel,
	}
	col := telemetry.NewCollector()
	prof := col.Attach(&base)
	router, err := cluster.ParseRouter("least-loaded")
	if err != nil {
		panic(fmt.Sprintf("experiments: telemetry router: %v", err))
	}
	faultAt := math.Floor(0.4 * duration)
	recoverAt := math.Floor(0.7 * duration)
	res := cluster.Run(cluster.Config{
		Nodes: []cluster.NodeSpec{
			{Spec: hwsim.VRex48(), Devices: devs, Region: "us"},
			{Spec: hwsim.VRex48(), Devices: devs, Region: "us"},
		},
		Base: base, Router: router,
		Faults:    []cluster.Fault{{Kind: cluster.FaultDrain, Node: 1, At: faultAt, Recover: recoverAt}},
		Rebalance: cluster.RebalanceConfig{MaxMoves: 4, Slack: 1},
	})

	attr := telemetry.AttributionTable(prof)

	m := col.Metrics()
	stalls := report.NewTable("Stall seconds by device and kind",
		"device", "kind", "seconds")
	for d, kinds := range m.StallSeconds {
		names := make([]string, 0, len(kinds))
		for name := range kinds {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			stalls.AddRow(d, name, kinds[name])
		}
	}

	spans, err := telemetry.BuildSpans(col.Events())
	if err != nil {
		panic(fmt.Sprintf("experiments: telemetry spans: %v", err))
	}
	balanced, frames, migs := 0, 0, 0
	for i := range spans {
		if spans[i].Balanced() {
			balanced++
		}
		frames += spans[i].Frames
		migs += spans[i].Migrations
	}
	agg := res.Serve.Aggregate
	mig := res.Serve.Migrations
	spanTab := report.NewTable("Session spans reconstructed from the event stream",
		"metric", "from_spans", "from_result")
	spanTab.AddRow("sessions", len(spans), agg.Sessions)
	spanTab.AddRow("balanced", balanced, agg.Sessions)
	spanTab.AddRow("frames_served", frames, agg.FramesServed)
	spanTab.AddRow("migrations", migs, mig.Live+mig.Lossy)
	spanTab.AddRow("peak_active", peakConcurrent(spans), m.PeakActive)

	var prom, trace bytes.Buffer
	m.WritePrometheus(&prom)
	if err := col.WriteTrace(&trace); err != nil {
		panic(fmt.Sprintf("experiments: telemetry trace: %v", err))
	}
	promSeries := bytes.Count(prom.Bytes(), []byte{'\n'})
	marks, slices := 0, 0
	for _, line := range []struct {
		tag string
		n   *int
	}{{`"ph":"i"`, &marks}, {`"ph":"X"`, &slices}} {
		*line.n = bytes.Count(trace.Bytes(), []byte(line.tag))
	}
	export := report.NewTable("Exporter footprint (deterministic byte streams)",
		"export", "items", "note")
	export.AddRow("prometheus", promSeries, "text lines incl. HELP/TYPE")
	export.AddRow("trace_slices", slices, "complete events (batches, stalls, spans)")
	export.AddRow("trace_marks", marks, "instant events (session lifecycle)")
	export.AddRow("events", len(col.Events()), "engine observations")

	return []*report.Table{attr, stalls, spanTab, export}
}

// peakConcurrent sweeps the spans' presence intervals for the most sessions
// present at once; all starts and ends at one instant apply before the
// count is sampled, like the metrics registry's session gauge.
func peakConcurrent(spans []telemetry.Span) int {
	type edge struct {
		at    float64
		delta int
	}
	edges := make([]edge, 0, 2*len(spans))
	for _, sp := range spans {
		edges = append(edges, edge{sp.Start, 1}, edge{sp.End, -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	peak, n := 0, 0
	for i, e := range edges {
		n += e.delta
		if i+1 == len(edges) || edges[i+1].at != e.at { //vrex:float-eq same-instant grouping wants bit equality of span bounds
			peak = max(peak, n)
		}
	}
	return peak
}
