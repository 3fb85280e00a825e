package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"

	"vrex/internal/serve"
)

// latencyBounds are the fixed log-scale histogram bucket upper bounds in
// seconds: 1e-4 · 2^i. Fixed buckets keep every export comparable across
// runs and policies (no data-dependent bucketing).
var latencyBounds = func() []float64 {
	b := make([]float64, 18)
	for i := range b {
		b[i] = 1e-4 * math.Pow(2, float64(i))
	}
	return b
}()

// Histogram is a fixed-bucket latency histogram for one operation and class.
type Histogram struct {
	// Op is "frame" or "query"; Class the stream class name.
	Op, Class string
	// Counts[i] counts samples <= latencyBounds[i]; the final entry is the
	// +Inf overflow bucket.
	Counts []int
	// Sum / N are the sample total and count.
	Sum float64
	N   int
}

// Counter is one (kind, class, device) event count.
type Counter struct {
	Kind   serve.EventKind
	Class  string
	Device int
	Count  int
}

// Metrics is the registry computed from a collector's stream.
type Metrics struct {
	Counters   []Counter
	Histograms []Histogram
	// StallSeconds[d] maps stall kind name to charged seconds on device d.
	StallSeconds []map[string]float64
	// PeakActive / FinalActive are the concurrent-session gauge's peak (over
	// every instant of the run) and its value at the end.
	PeakActive, FinalActive int
}

// Metrics folds the collected stream into the registry.
func (c *Collector) Metrics() *Metrics {
	m := &Metrics{}
	counts := make(map[Counter]int)
	hists := make(map[[2]string]*Histogram)
	sample := func(op, class string, lat float64) {
		key := [2]string{op, class}
		h := hists[key]
		if h == nil {
			h = &Histogram{Op: op, Class: class, Counts: make([]int, len(latencyBounds)+1)}
			hists[key] = h
		}
		i := sort.SearchFloat64s(latencyBounds, lat)
		h.Counts[i]++
		h.Sum += lat
		h.N++
	}
	events := c.Events()
	active := 0
	for i, ev := range events {
		counts[Counter{Kind: ev.Kind, Class: ev.Class, Device: ev.Device}]++
		switch ev.Kind {
		case serve.EventSessionStart:
			active++
		case serve.EventSessionEnd:
			active--
		case serve.EventFrameServed:
			sample("frame", ev.Class, ev.Latency)
		case serve.EventQueryServed:
			sample("query", ev.Class, ev.Latency)
		default:
			// remaining kinds land in Counters above only
		}
		// Sample the gauge once all events at this instant have applied, so
		// a session ending exactly when another starts is not double-counted.
		if i+1 == len(events) || events[i+1].Time != ev.Time { //vrex:float-eq same-instant grouping wants bit equality of event times
			m.PeakActive = max(m.PeakActive, active)
		}
	}
	m.FinalActive = active

	m.Counters = make([]Counter, 0, len(counts))
	for k, n := range counts {
		k.Count = n
		m.Counters = append(m.Counters, k)
	}
	sort.Slice(m.Counters, func(i, j int) bool {
		a, b := m.Counters[i], m.Counters[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		return a.Device < b.Device
	})
	m.Histograms = make([]Histogram, 0, len(hists))
	for _, h := range hists {
		m.Histograms = append(m.Histograms, *h)
	}
	sort.Slice(m.Histograms, func(i, j int) bool {
		a, b := m.Histograms[i], m.Histograms[j]
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		return a.Class < b.Class
	})

	// Stall seconds sum in delivery order, the order the engine charged them.
	m.StallSeconds = []map[string]float64{{}}
	for _, ev := range c.Raw() {
		switch ev.Kind {
		case serve.EventPageIn, serve.EventPageOut, serve.EventMigrateSend, serve.EventMigrateRecv:
			for len(m.StallSeconds) <= ev.Device {
				m.StallSeconds = append(m.StallSeconds, map[string]float64{})
			}
			m.StallSeconds[ev.Device][ev.Kind.String()] += ev.Latency
		default:
			// only stalls carry device-timeline seconds
		}
	}
	return m
}

// WritePrometheus writes the registry in Prometheus text exposition format.
// Output is deterministic: series are emitted in sorted label order.
func (m *Metrics) WritePrometheus(w io.Writer) {
	fmt.Fprintln(w, "# HELP vrex_events_total Engine events by kind, class and device.")
	fmt.Fprintln(w, "# TYPE vrex_events_total counter")
	for _, c := range m.Counters {
		fmt.Fprintf(w, "vrex_events_total{kind=%q,class=%q,device=\"%d\"} %d\n",
			c.Kind.String(), c.Class, c.Device, c.Count)
	}
	fmt.Fprintln(w, "# HELP vrex_latency_seconds Completion latency of served work.")
	fmt.Fprintln(w, "# TYPE vrex_latency_seconds histogram")
	for _, h := range m.Histograms {
		cum := 0
		for i, n := range h.Counts {
			cum += n
			le := "+Inf"
			if i < len(latencyBounds) {
				le = formatBound(latencyBounds[i])
			}
			fmt.Fprintf(w, "vrex_latency_seconds_bucket{op=%q,class=%q,le=%q} %d\n",
				h.Op, h.Class, le, cum)
		}
		fmt.Fprintf(w, "vrex_latency_seconds_sum{op=%q,class=%q} %g\n", h.Op, h.Class, h.Sum)
		fmt.Fprintf(w, "vrex_latency_seconds_count{op=%q,class=%q} %d\n", h.Op, h.Class, h.N)
	}
	fmt.Fprintln(w, "# HELP vrex_stall_seconds_total Device-timeline stall seconds by kind.")
	fmt.Fprintln(w, "# TYPE vrex_stall_seconds_total counter")
	for d, kinds := range m.StallSeconds {
		names := make([]string, 0, len(kinds))
		for name := range kinds {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "vrex_stall_seconds_total{device=\"%d\",kind=%q} %g\n", d, name, kinds[name])
		}
	}
	fmt.Fprintln(w, "# HELP vrex_active_sessions_peak Peak concurrent sessions.")
	fmt.Fprintln(w, "# TYPE vrex_active_sessions_peak gauge")
	fmt.Fprintf(w, "vrex_active_sessions_peak %d\n", m.PeakActive)
	fmt.Fprintln(w, "# HELP vrex_active_sessions Concurrent sessions at end of run.")
	fmt.Fprintln(w, "# TYPE vrex_active_sessions gauge")
	fmt.Fprintf(w, "vrex_active_sessions %d\n", m.FinalActive)
}

// formatBound renders a bucket bound compactly and stably (%g keeps
// 0.0001 .. 13.1072 readable without trailing zeros).
func formatBound(v float64) string { return fmt.Sprintf("%g", v) }
