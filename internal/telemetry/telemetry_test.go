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

// TestMetricsRegistry checks counters and histograms against the run's own
// Result, and the Prometheus exposition's internal consistency.
func TestMetricsRegistry(t *testing.T) {
	cfg := schedConfig(t)
	col := NewCollector()
	col.Attach(&cfg)
	res := serve.Run(cfg)

	m := col.Metrics()
	byKind := map[serve.EventKind]int{}
	for _, c := range m.Counters {
		byKind[c.Kind] += c.Count
	}
	agg := res.Aggregate
	served, dropped, queries := byKind[serve.EventFrameServed], byKind[serve.EventFrameDropped], byKind[serve.EventQueryServed]
	if served != agg.FramesServed || dropped != agg.FramesDropped || queries != agg.QueriesServed {
		t.Fatalf("counters (%d/%d/%d) disagree with Result (%d/%d/%d)",
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
	col.Metrics().WritePrometheus(&again)
	if !bytes.Equal(prom.Bytes(), again.Bytes()) {
		t.Fatal("Prometheus export is not deterministic")
	}
}

// TestPeakActiveIsPerInstant pins the session gauge: its peak is taken at
// every instant, not only at window ends, and only after all events at one
// instant apply — a session starting exactly when another ends, even if
// delivered first, does not count both.
func TestPeakActiveIsPerInstant(t *testing.T) {
	col := NewCollector()
	for _, ev := range []struct {
		kind serve.EventKind
		at   float64
		s    int
	}{
		{serve.EventSessionStart, 0, 0},
		{serve.EventSessionStart, 0.2, 1},
		{serve.EventSessionStart, 0.4, 2},
		{serve.EventSessionStart, 0.6, 3},
		{serve.EventSessionEnd, 0.6, 0},
		{serve.EventSessionEnd, 0.8, 1},
		{serve.EventSessionEnd, 0.9, 2},
	} {
		col.Observe(serve.Event{Kind: ev.kind, Time: ev.at, Session: ev.s, Latency: math.NaN()})
	}
	m := col.Metrics()
	if m.PeakActive != 3 || m.FinalActive != 1 {
		t.Fatalf("gauge peak=%d final=%d, want 3 and 1", m.PeakActive, m.FinalActive)
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
// balanced lifecycle, per-kind event counts match the Result counters, and
// the stall events reconcile with the profile's paging and migration
// buckets.
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
	deg, err := degrade.Parse("pressure(lo=0.2,hi=0.5)")
	if err != nil {
		t.Fatal(err)
	}
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
		Faults:    []cluster.Fault{{Kind: cluster.FaultDrain, Node: 1, At: 12, Recover: 20}},
		Rebalance: cluster.RebalanceConfig{MaxMoves: 4, Slack: 1},
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
	// Stalls pass through the cluster's window observer to the collector.
	checkStalls(t, col.Raw(), prof)
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

// checkStalls reconciles a run's stall events with the profile's paging and
// migration buckets: every stall event has Session -1 and a positive
// duration, and each kind's durations sum to its bucket.
func checkStalls(t *testing.T, events []serve.Event, prof *serve.PhaseProfile) {
	t.Helper()
	sums := map[serve.EventKind]float64{}
	for _, ev := range events {
		switch ev.Kind {
		case serve.EventPageIn, serve.EventPageOut, serve.EventMigrateSend, serve.EventMigrateRecv:
			if ev.Session != -1 || !(ev.Latency > 0) {
				t.Fatalf("stall event must have session -1 and a positive duration: %+v", ev)
			}
			sums[ev.Kind] += ev.Latency
		default:
		}
	}
	for _, chk := range []struct {
		kind serve.EventKind
		want float64
	}{
		{serve.EventPageIn, prof.PageIn},
		{serve.EventPageOut, prof.PageOut},
		{serve.EventMigrateSend, prof.MigrationSend},
		{serve.EventMigrateRecv, prof.MigrationRecv},
	} {
		if chk.want <= 0 {
			t.Errorf("%v: profile bucket is empty; the scenario lost its pressure", chk.kind)
		}
		if math.Abs(sums[chk.kind]-chk.want) > 1e-9 {
			t.Errorf("%v stalls sum %v, profile bucket %v", chk.kind, sums[chk.kind], chk.want)
		}
	}
}

// TestAttachChainsExistingObserver pins the one-hook contract: Attach on a
// config that already has an Observer keeps it, and the earlier observer and
// the collector both see the identical stream, stalls included — the same
// stream a collector attached alone sees.
func TestAttachChainsExistingObserver(t *testing.T) {
	withKV := func() serve.Config {
		cfg := schedConfig(t)
		sp, err := kvpool.ParseSpill("spill(evict=lru,pages=8)")
		if err != nil {
			t.Fatal(err)
		}
		// ~30 default pages per device: two 5000-token sessions fit, four page.
		cfg.KV = serve.KVConfig{Capacity: 30 * 256 * 131072, Spill: sp}
		return cfg
	}
	var earlier []serve.Event
	both := withKV()
	both.Observer = serve.ObserverFunc(func(ev serve.Event) { earlier = append(earlier, ev) })
	chained := NewCollector()
	chained.Attach(&both)
	serve.Run(both)

	alone := withKV()
	solo := NewCollector()
	solo.Attach(&alone)
	serve.Run(alone)

	stalls := 0
	for _, ev := range earlier {
		if ev.Kind == serve.EventPageIn || ev.Kind == serve.EventPageOut {
			stalls++
		}
	}
	if stalls == 0 {
		t.Fatal("the run paged no KV; the stream has no stalls to compare")
	}
	if !eventsEqual(earlier, chained.Raw()) || !eventsEqual(earlier, solo.Raw()) {
		t.Fatal("the earlier observer and the collector saw different streams")
	}
}

// eventsEqual compares event streams treating NaN latencies as equal.
func eventsEqual(a, b []serve.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x != y && !(math.IsNaN(x.Latency) && math.IsNaN(y.Latency) && sameButLatency(x, y)) {
			return false
		}
	}
	return true
}
