package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"

	"vrex/internal/cluster"
	"vrex/internal/degrade"
	"vrex/internal/hwsim"
	"vrex/internal/kvpool"
	"vrex/internal/serve"
)

// schedConfig is a scheduler-plane serving run whose event delivery order
// is non-monotone in time (served events surface when their batch forms).
func schedConfig(t *testing.T) serve.Config {
	t.Helper()
	mix, err := serve.ParseMix("2fps:0.7,4fps:0.3")
	if err != nil {
		t.Fatal(err)
	}
	for i := range mix {
		mix[i].Stream.QueryEvery = 7
		mix[i].Stream.StartKV = 5000
	}
	pol, err := serve.ParseScheduler("edf")
	if err != nil {
		t.Fatal(err)
	}
	return serve.Config{
		Dev: hwsim.VRex8(), Pol: hwsim.ReSVModel(),
		Streams: 8, Duration: 20, Classes: mix, Devices: 2,
		Scheduler:     serve.SchedulerConfig{Policy: pol, BatchMax: 4},
		DropThreshold: 4, Seed: 11,
	}
}

func monotone(ts []float64) bool {
	for i := 1; i < len(ts); i++ {
		if ts[i] < ts[i-1] {
			return false
		}
	}
	return true
}

// TestEventsReorderedAtFlush is the satellite regression for the
// Event.Time documentation gap: the engine delivers served events when their
// step forms, out of time order, and the collector must not assume sorted input — Events()
// stable-sorts at flush.
func TestEventsReorderedAtFlush(t *testing.T) {
	cfg := schedConfig(t)
	col := NewCollector()
	col.Attach(&cfg)
	serve.Run(cfg)

	raw := make([]float64, 0, len(col.Raw()))
	for _, ev := range col.Raw() {
		raw = append(raw, ev.Time)
	}
	if monotone(raw) {
		t.Fatal("scheduler-plane delivery was monotone; the regression lost its teeth — " +
			"pick a config that batches across arrivals")
	}
	sorted := col.Events()
	ts := make([]float64, 0, len(sorted))
	for _, ev := range sorted {
		ts = append(ts, ev.Time)
	}
	if !monotone(ts) {
		t.Fatal("Events() must be time-sorted")
	}
	if len(sorted) != len(col.Raw()) {
		t.Fatal("sort must not lose events")
	}
	// Stability: equal-time events keep engine delivery order.
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Time != sorted[i-1].Time {
			continue
		}
		// Find both in the raw stream; the earlier one must come first.
		a, b := indexOf(col.Raw(), sorted[i-1]), indexOf(col.Raw(), sorted[i])
		if a > b {
			t.Fatalf("equal-time events reordered at %g", sorted[i].Time)
		}
	}
}

func indexOf(evs []serve.Event, want serve.Event) int {
	for i, ev := range evs {
		if ev == want || (math.IsNaN(ev.Latency) && math.IsNaN(want.Latency) && sameButLatency(ev, want)) {
			return i
		}
	}
	return -1
}

func sameButLatency(a, b serve.Event) bool {
	a.Latency, b.Latency = 0, 0
	return a == b
}

// TestTraceMonotonePerLane pins the acceptance criterion: the emitted
// Chrome trace parses as JSON and every lane's timestamps are monotone,
// even though the engine delivered events out of order.
func TestTraceMonotonePerLane(t *testing.T) {
	cfg := schedConfig(t)
	col := NewCollector()
	col.Attach(&cfg)
	serve.Run(cfg)

	var buf bytes.Buffer
	if err := col.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	lanes := map[[2]int][]float64{}
	batches := 0
	for _, te := range trace.TraceEvents {
		if te.Ph == "M" {
			continue
		}
		if te.Ph == "X" && strings.HasPrefix(te.Name, "batch") {
			batches++
		}
		if te.Ts < 0 || te.Dur < 0 {
			t.Fatalf("negative timestamp/duration: %+v", te)
		}
		key := [2]int{te.Pid, te.Tid}
		lanes[key] = append(lanes[key], te.Ts)
	}
	if batches == 0 {
		t.Fatal("scheduler-plane trace must contain batch slices")
	}
	for key, ts := range lanes {
		if !monotone(ts) {
			t.Fatalf("lane pid=%d tid=%d not monotone", key[0], key[1])
		}
	}
}

// TestMetricsRegistry checks counters, histograms and windows against the
// run's own Result, and the Prometheus exposition's internal consistency.
func TestMetricsRegistry(t *testing.T) {
	cfg := schedConfig(t)
	col := NewCollector()
	col.Attach(&cfg)
	res := serve.Run(cfg)

	m := col.Metrics(1, cfg.Duration)
	if len(m.Windows) != 20 {
		t.Fatalf("want 20 windows, got %d", len(m.Windows))
	}
	served, dropped, queries := 0, 0, 0
	for _, w := range m.Windows {
		served += w.FramesServed
		dropped += w.FramesDropped
		queries += w.QueriesServed
	}
	agg := res.Aggregate
	if served != agg.FramesServed || dropped != agg.FramesDropped || queries != agg.QueriesServed {
		t.Fatalf("windows (%d/%d/%d) disagree with Result (%d/%d/%d)",
			served, dropped, queries, agg.FramesServed, agg.FramesDropped, agg.QueriesServed)
	}
	// Histogram sample counts equal served work per op.
	histN := map[string]int{}
	for _, h := range m.Histograms {
		cum := 0
		for _, n := range h.Counts {
			cum += n
		}
		if cum != h.N {
			t.Fatalf("histogram %s/%s buckets sum %d != N %d", h.Op, h.Class, cum, h.N)
		}
		histN[h.Op] += h.N
	}
	if histN["frame"] != agg.FramesServed || histN["query"] != agg.QueriesServed {
		t.Fatalf("histogram totals %v disagree with Result", histN)
	}
	if m.PeakActive == 0 || m.PeakActive < m.FinalActive {
		t.Fatalf("active gauge inconsistent: peak=%d final=%d", m.PeakActive, m.FinalActive)
	}

	var prom bytes.Buffer
	m.WritePrometheus(&prom)
	text := prom.String()
	for _, want := range []string{
		"# TYPE vrex_events_total counter",
		"# TYPE vrex_latency_seconds histogram",
		`le="+Inf"`,
		"# TYPE vrex_active_sessions gauge",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// Determinism: a second export is byte-identical.
	var again bytes.Buffer
	col.Metrics(1, cfg.Duration).WritePrometheus(&again)
	if !bytes.Equal(prom.Bytes(), again.Bytes()) {
		t.Fatal("Prometheus export is not deterministic")
	}
}

// TestAttributionTableSorted pins the profile table's ordering and total.
func TestAttributionTableSorted(t *testing.T) {
	p := &serve.PhaseProfile{PageIn: 3, PageOut: 1, MigrationSend: 0.5}
	p.Sim.Attn = 7
	p.Sim.Linear = 7 // ties break by name
	tab := AttributionTable(p)
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	order := []string{"attention", "weights (linear)", "kv page-in", "kv page-out", "migration send", "total"}
	last := -1
	for _, name := range order {
		i := strings.Index(out, name)
		if i < 0 {
			t.Fatalf("missing row %q:\n%s", name, out)
		}
		if i < last {
			t.Fatalf("row %q out of order:\n%s", name, out)
		}
		last = i
	}
}

// TestCompletenessClusterRun is the satellite coverage test: a
// churn+spill+degrade+cluster run reconstructs every session's span with a
// balanced lifecycle, and per-kind event counts match the Result counters.
func TestCompletenessClusterRun(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep; skipped in -short")
	}
	mix, err := serve.ParseMix("2fps:0.6,4fps:0.4")
	if err != nil {
		t.Fatal(err)
	}
	for i := range mix {
		mix[i].Stream.QueryEvery = 6
		mix[i].Stream.StartKV = 8000
	}
	pol, err := serve.ParseScheduler("edf")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := kvpool.ParseSpill("spill(evict=lru,pages=8)")
	if err != nil {
		t.Fatal(err)
	}
	dp, err := degrade.Parse("pressure(lo=0.2,hi=0.5)")
	if err != nil {
		t.Fatal(err)
	}
	deg := serve.DegradeConfig{Policy: dp.Controller, Step: dp.Step, Floor: dp.Floor}
	base := serve.Config{
		Pol:     hwsim.ReSVModel(),
		Streams: 8, Duration: 30, Classes: mix,
		Churn: serve.ChurnConfig{ArrivalRate: 0.3, MeanLifetime: 10},
		// ~35 default pages per device: one 8000-token session fits, two thrash.
		KV:            serve.KVConfig{Capacity: 35 * 256 * 131072, Spill: sp},
		Scheduler:     serve.SchedulerConfig{Policy: pol, BatchMax: 4, SLO: 0.7},
		Degrade:       deg,
		DropThreshold: 4, Seed: 7,
	}
	col := NewCollector()
	prof := col.Attach(&base)
	router, err := cluster.ParseRouter("least-loaded")
	if err != nil {
		t.Fatal(err)
	}
	res := cluster.Run(cluster.Config{
		Nodes: []cluster.NodeSpec{
			{Spec: hwsim.VRex48(), Devices: 2, Region: "us"},
			{Spec: hwsim.VRex48(), Devices: 2, Region: "eu"},
		},
		Base: base, Router: router,
		Faults:          []cluster.Fault{{Kind: cluster.FaultDrain, Node: 1, At: 12, Recover: 20}},
		Rebalance:       cluster.RebalanceConfig{MaxMoves: 4, Slack: 1},
		ControlInterval: 1,
	})

	spans, err := BuildSpans(col.Events())
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != res.Serve.Aggregate.Sessions {
		t.Fatalf("%d spans for %d sessions", len(spans), res.Serve.Aggregate.Sessions)
	}
	counts := map[serve.EventKind]int{}
	for _, ev := range col.Events() {
		counts[ev.Kind]++
	}
	agg := res.Serve.Aggregate
	mig := res.Serve.Migrations
	for _, chk := range []struct {
		kind serve.EventKind
		want int
		name string
	}{
		{serve.EventSessionStart, agg.Sessions, "sessions"},
		{serve.EventSessionEnd, agg.Sessions, "session ends"},
		{serve.EventFrameServed, agg.FramesServed, "frames served"},
		{serve.EventFrameDropped, agg.FramesDropped, "frames dropped"},
		{serve.EventQueryServed, agg.QueriesServed, "queries served"},
		{serve.EventQueryDropped, agg.QueriesDropped, "queries dropped"},
		{serve.EventDeadlineMissed, agg.DeadlineMisses, "deadline misses"},
		{serve.EventSessionMigrated, mig.Live + mig.Lossy, "migrations"},
		{serve.EventDegraded, agg.Degradations, "degradations"},
		{serve.EventRestored, agg.Restorations, "restorations"},
	} {
		if counts[chk.kind] != chk.want {
			t.Errorf("%s: %d events, Result says %d", chk.name, counts[chk.kind], chk.want)
		}
	}
	if mig.Live == 0 {
		t.Error("drain produced no live migrations; the scenario lost its pressure")
	}
	if agg.Degradations == 0 {
		t.Error("no degradations; the scenario lost its pressure")
	}
	// Span tallies agree with the same counters session by session.
	totFrames, totMig := 0, 0
	for _, sp := range spans {
		totFrames += sp.Frames
		totMig += sp.Migrations
	}
	if totFrames != agg.FramesServed || totMig != mig.Live+mig.Lossy {
		t.Errorf("span tallies (%d frames, %d migrations) disagree with Result (%d, %d)",
			totFrames, totMig, agg.FramesServed, mig.Live+mig.Lossy)
	}
	// The cluster profile conserves too.
	if prof.Charged <= 0 {
		t.Fatal("cluster run charged nothing")
	}
	if diff := math.Abs(prof.Total() - prof.Charged); diff > 1e-9 {
		t.Fatalf("cluster attribution leak: %g", diff)
	}
	// Spans are internally time-sorted.
	for _, sp := range spans {
		ts := make([]float64, 0, len(sp.Events))
		for _, ev := range sp.Events {
			ts = append(ts, ev.Time)
		}
		if !sort.Float64sAreSorted(ts) {
			t.Fatalf("session %d span events not sorted", sp.Session)
		}
	}
}
