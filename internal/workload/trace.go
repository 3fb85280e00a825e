package workload

// TraceEvent is one recorded session arrival: when the session joined, the
// stream class it drew, and how long it stayed. A Lifetime of 0 means the
// session was still present when the recording ended (on replay it stays for
// the rest of the run). Traces are the raw material of trace-replay
// scenarios: internal/scenario records them from a serving run, embeds them
// in .vrex files and compiles them back into the serving churn plane's
// arrival/lifetime/class hooks.
type TraceEvent struct {
	At       float64
	Class    string
	Lifetime float64
}
