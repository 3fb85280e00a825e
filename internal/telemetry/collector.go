// Package telemetry is the simulator's observability plane: it consumes the
// serving engine's event stream (serve.Observer; device stalls arrive as
// stall events) and renders it as a metrics registry (counters, gauges,
// log-bucket latency histograms and stall seconds; Prometheus text
// exposition), per-session spans and Chrome trace-event JSON loadable in
// Perfetto / chrome://tracing, and a sorted phase-attribution table over the
// engine's PhaseProfile. Everything is simulated-time and deterministic:
// identical runs (any Workers setting) produce byte-identical exports.
package telemetry

import (
	"sort"

	"vrex/internal/serve"
)

// Collector is a serve.Observer that buffers the raw event stream.
// The engine's delivery order is deterministic but — documented on
// serve.Event — not globally time-monotone (served events surface when
// their step forms, after later arrivals), so
// every accessor that needs time order stable-sorts at flush rather than
// assuming sorted input.
type Collector struct {
	events []serve.Event
	// sorted caches the stable time-sort of events (invalidated on append).
	sorted []serve.Event
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Attach wires the collector and a fresh phase profile into cfg and returns
// the profile; run the config, then export. An Observer already on cfg keeps
// receiving the identical stream: the collector is chained behind it.
func (c *Collector) Attach(cfg *serve.Config) *serve.PhaseProfile {
	prof := &serve.PhaseProfile{}
	cfg.Profile = prof
	if prev := cfg.Observer; prev != nil {
		cfg.Observer = serve.ObserverFunc(func(ev serve.Event) {
			prev.Observe(ev)
			c.Observe(ev)
		})
	} else {
		cfg.Observer = c
	}
	return prof
}

// Observe implements serve.Observer.
func (c *Collector) Observe(ev serve.Event) {
	c.events = append(c.events, ev)
	c.sorted = nil
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
