package scenario

import (
	"sort"

	"vrex/internal/serve"
	"vrex/internal/workload"
)

// Recorder is a serve.Observer that accumulates a replayable per-session
// arrival trace from a live run: wire it through Config.Observer, run, then
// turn the recording into a trace-replay scenario with Scenario. Replaying
// that scenario reproduces the run's exact arrival pattern — times, classes
// and lifetimes — with no stochastic churn at all, which is how recorded
// load shapes become committed regression fixtures.
type Recorder struct {
	index  map[int]int // session id -> position in events
	events []workload.TraceEvent
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{index: map[int]int{}}
}

// Observe implements serve.Observer, capturing session starts and ends. A
// repeated start for the same session overwrites its earlier record. An end
// sets the session's lifetime to the time since its start; ends for sessions
// never seen starting are ignored (the recording may have begun mid-run).
func (r *Recorder) Observe(e serve.Event) {
	switch e.Kind {
	case serve.EventSessionStart:
		ev := workload.TraceEvent{At: e.Time, Class: e.Class}
		if i, ok := r.index[e.Session]; ok {
			r.events[i] = ev
			return
		}
		r.index[e.Session] = len(r.events)
		r.events = append(r.events, ev)
	case serve.EventSessionEnd:
		if i, ok := r.index[e.Session]; ok {
			if life := e.Time - r.events[i].At; life > 0 {
				r.events[i].Lifetime = life
			}
		}
	default:
		// only session lifecycle shapes the replayed trace
	}
}

// Events returns the recorded arrivals sorted by arrival time (stable, so
// simultaneous arrivals keep recording order). Sessions never seen ending
// carry Lifetime 0 — on replay they stay until the run ends.
func (r *Recorder) Events() []workload.TraceEvent {
	out := make([]workload.TraceEvent, len(r.events))
	copy(out, r.events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Scenario converts the recording into a trace-replay scenario: base's
// device/policy/scheduler surface with the stochastic load shape replaced by
// the recorded trace (streams 0, arrivals trace, lifetime none, bursts
// stripped — the trace already embodies them).
func (r *Recorder) Scenario(base *Scenario) *Scenario {
	s := base.Clone()
	s.Name = base.Name + "-replay"
	s.Streams = 0
	s.Arrival = ArrivalSpec{Kind: "trace"}
	s.Lifetime = LifetimeSpec{Kind: "none"}
	s.Trace = r.Events()
	for i := range s.Classes {
		s.Classes[i].Burst = nil
	}
	return s
}
