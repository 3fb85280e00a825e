package workload

import "sort"

// TraceEvent is one recorded session arrival: when the session joined, the
// stream class it drew, and how long it stayed. A Lifetime of 0 means the
// session was still present when the recording ended (on replay it stays for
// the rest of the run). Traces are the raw material of trace-replay
// scenarios: internal/scenario embeds them in .vrex files and compiles them
// back into the serving churn plane's arrival/lifetime/class hooks.
type TraceEvent struct {
	At       float64
	Class    string
	Lifetime float64
}

// TraceRecorder accumulates per-session arrival traces from a serving run:
// feed it every session's start (and, when observed, end), then read the
// replayable event list with Events. The zero value is not ready; use
// NewTraceRecorder.
type TraceRecorder struct {
	index  map[int]int // session id -> position in events
	events []TraceEvent
}

// NewTraceRecorder returns an empty recorder.
func NewTraceRecorder() *TraceRecorder {
	return &TraceRecorder{index: map[int]int{}}
}

// Start records session's arrival at time at with the given class name. A
// repeated Start for the same session overwrites the previous record.
func (r *TraceRecorder) Start(session int, at float64, class string) {
	if i, ok := r.index[session]; ok {
		r.events[i] = TraceEvent{At: at, Class: class}
		return
	}
	r.index[session] = len(r.events)
	r.events = append(r.events, TraceEvent{At: at, Class: class})
}

// End records session's departure; its lifetime becomes at minus its start.
// Ends for unknown sessions are ignored (the recording may have begun
// mid-run).
func (r *TraceRecorder) End(session int, at float64) {
	i, ok := r.index[session]
	if !ok {
		return
	}
	if life := at - r.events[i].At; life > 0 {
		r.events[i].Lifetime = life
	}
}

// Events returns the recorded arrivals sorted by arrival time (stable, so
// simultaneous arrivals keep recording order). Sessions never seen ending
// carry Lifetime 0 — on replay they stay until the run ends.
func (r *TraceRecorder) Events() []TraceEvent {
	out := make([]TraceEvent, len(r.events))
	copy(out, r.events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
