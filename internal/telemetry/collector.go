// Package telemetry is the simulator's observability plane: it consumes the
// serving engine's event and stall streams (serve.TelemetrySink) and renders
// them as a metrics registry (counters, gauges, log-bucket latency
// histograms, windowed time-series; Prometheus text exposition or
// report tables), per-session spans and Chrome trace-event JSON loadable in
// Perfetto / chrome://tracing, and a sorted phase-attribution table over the
// engine's PhaseProfile. Everything is simulated-time and deterministic:
// identical runs (any Workers setting) produce byte-identical exports.
package telemetry

import (
	"sort"

	"vrex/internal/serve"
)

// DeviceStall is one non-compute occupation of a device timeline (KV paging
// or a migration leg), as reported by the engine.
type DeviceStall struct {
	Device     int
	Start, Dur float64
	Kind       serve.StallKind
}

// Collector implements serve.TelemetrySink by buffering the raw streams.
// The engine's delivery order is deterministic but — documented on
// serve.Event — not globally time-monotone (served events surface when
// their step forms, after later arrivals), so
// every accessor that needs time order stable-sorts at flush rather than
// assuming sorted input.
type Collector struct {
	events []serve.Event
	stalls []DeviceStall
	// sorted caches the stable time-sort of events (invalidated on append).
	sorted []serve.Event
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Attach wires the collector and a fresh phase profile into cfg and returns
// the profile; run the config, then export.
func (c *Collector) Attach(cfg *serve.Config) *serve.PhaseProfile {
	prof := &serve.PhaseProfile{}
	cfg.Telemetry = serve.TelemetryConfig{Sink: c, Profile: prof}
	return prof
}

// Observe implements serve.Observer.
func (c *Collector) Observe(ev serve.Event) {
	c.events = append(c.events, ev)
	c.sorted = nil
}

// Stall implements serve.TelemetrySink.
func (c *Collector) Stall(device int, start, dur float64, kind serve.StallKind) {
	c.stalls = append(c.stalls, DeviceStall{Device: device, Start: start, Dur: dur, Kind: kind})
}

// Events returns the event stream stable-sorted by time: equal-time events
// keep the engine's deterministic delivery order, and scheduler-plane
// out-of-order delivery is repaired here (the reorder buffer at flush).
// The returned slice is shared; callers must not mutate it.
func (c *Collector) Events() []serve.Event {
	if c.sorted == nil {
		c.sorted = make([]serve.Event, len(c.events))
		copy(c.sorted, c.events)
		sort.SliceStable(c.sorted, func(i, j int) bool {
			return c.sorted[i].Time < c.sorted[j].Time
		})
	}
	return c.sorted
}

// Raw returns the events in engine delivery order (shared; do not mutate).
func (c *Collector) Raw() []serve.Event { return c.events }

// Stalls returns the stall stream stable-sorted by start time (shared; do
// not mutate the records).
func (c *Collector) Stalls() []DeviceStall {
	out := make([]DeviceStall, len(c.stalls))
	copy(out, c.stalls)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}
