package serve

import "math"

// EventKind classifies an Observer callback.
type EventKind int

const (
	// EventSessionStart: a session joined and was assigned a device.
	EventSessionStart EventKind = iota
	// EventSessionEnd: a session's presence window closed.
	EventSessionEnd
	// EventFrameServed: a video frame finished service.
	EventFrameServed
	// EventFrameDropped: a frame was dropped (backlog or OOM).
	EventFrameDropped
	// EventQueryServed: a query (prefill + full answer) finished service.
	EventQueryServed
	// EventSessionQueued: admission control had no pages for the session's
	// working set (KV plane only); its frames drop until admission.
	EventSessionQueued
	// EventSessionAdmitted: a previously queued session obtained its pages.
	EventSessionAdmitted
	// EventSessionRejected: the session's working set exceeds the device's
	// whole KV pool; it is never served.
	EventSessionRejected
	// EventQueryDropped: a query arrived for an unadmitted session, or its
	// KV growth could not be allocated.
	EventQueryDropped
	// EventBatchFormed: a device formed one hardware step from its ready
	// work (Batch carries the member count, Latency the step's service time,
	// Time the step's start). Every step emits one, batch-1 steps included.
	// Delivered after its members' served events, with the head session's
	// post-step KV.
	EventBatchFormed
	// EventDeadlineMissed: a served frame completed after its class deadline
	// (StreamClass.SLO); emitted right after the frame's EventFrameServed
	// with the same completion latency.
	EventDeadlineMissed
	// EventDeviceDown: the control plane took a device out of service
	// (drain or failure injection). Session is -1; Device identifies it.
	EventDeviceDown
	// EventDeviceUp: the control plane returned a device to service.
	// Session is -1; Device identifies it.
	EventDeviceUp
	// EventSessionMigrated: the control plane moved a session to a new
	// device. Device is the destination, KV the session's post-move KV
	// length, and Latency the total seconds the move occupied device
	// timelines (0 for a lossy failure re-placement).
	EventSessionMigrated
	// EventDegraded: the degradation plane shrank the session's retrieval
	// budget by one quantized step; BudgetBefore / BudgetAfter carry the
	// budget scales around the step.
	EventDegraded
	// EventRestored: the degradation plane restored one quantized step of
	// the session's retrieval budget (pressure cleared with hysteresis).
	EventRestored
	// The four stall kinds report non-compute occupation of a device
	// timeline: Time is the stall's start (after queueing behind in-flight
	// work), Latency its duration, Device the charged device, and Session -1.
	// Their durations sum to the PhaseProfile's paging and migration buckets.
	//
	// EventPageIn: spilled KV pages read back before service.
	EventPageIn
	// EventPageOut: KV pages spilled to the backing store (admission spills,
	// reclaim on growth, queue drains).
	EventPageOut
	// EventMigrateSend: the source leg of a live session migration.
	EventMigrateSend
	// EventMigrateRecv: the destination leg of a live session migration.
	EventMigrateRecv
	// numEventKinds bounds the kind space; tests iterate [0, numEventKinds)
	// to keep String() and the telemetry exporters exhaustive.
	numEventKinds
)

// String names the kind for logs and traces.
func (k EventKind) String() string {
	switch k {
	case EventSessionStart:
		return "session-start"
	case EventSessionEnd:
		return "session-end"
	case EventFrameServed:
		return "frame-served"
	case EventFrameDropped:
		return "frame-dropped"
	case EventQueryServed:
		return "query-served"
	case EventSessionQueued:
		return "session-queued"
	case EventSessionAdmitted:
		return "session-admitted"
	case EventSessionRejected:
		return "session-rejected"
	case EventQueryDropped:
		return "query-dropped"
	case EventBatchFormed:
		return "batch-formed"
	case EventDeadlineMissed:
		return "deadline-missed"
	case EventDeviceDown:
		return "device-down"
	case EventDeviceUp:
		return "device-up"
	case EventSessionMigrated:
		return "session-migrated"
	case EventDegraded:
		return "degraded"
	case EventRestored:
		return "restored"
	case EventPageIn:
		return "kv-page-in"
	case EventPageOut:
		return "kv-page-out"
	case EventMigrateSend:
		return "migration-send"
	case EventMigrateRecv:
		return "migration-recv"
	}
	return "unknown"
}

// Event is one scheduling observation. Events are delivered from the
// single-threaded device loop in a deterministic order for every Workers
// setting. Lifecycle events and drops of work that never queued surface as
// they happen; served, missed and formation-time drops surface when the
// device forms the step, so Time is not globally monotone.
type Event struct {
	Kind EventKind
	// Time is the arrival time of the underlying work (not its completion);
	// for EventBatchFormed and the stall kinds it is the step's or stall's
	// start time.
	Time    float64
	Session int
	// Class is the session's stream class name; Device its fleet member
	// (-1 before assignment).
	Class  string
	Device int
	// Latency is the completion latency (queueing + service) for
	// EventFrameServed / EventQueryServed / EventDeadlineMissed, the
	// step's service time for EventBatchFormed and the stall's duration for
	// the stall kinds (EventPageIn ... EventMigrateRecv). For every other kind —
	// including dropped frames and queries, which never complete — it is
	// NaN, so a dropped event can never be mistaken for a real zero-latency
	// sample (test with math.IsNaN, not == 0).
	Latency float64
	// KV is the session's KV length after the event.
	KV int
	// Batch is the number of co-scheduled items for EventBatchFormed
	// (1 for a solo query step), 0 for every other kind.
	Batch int
	// BudgetBefore / BudgetAfter are the session's retrieval budget scales
	// around an EventDegraded / EventRestored step, 0 for every other kind.
	BudgetBefore, BudgetAfter float64
}

// latencyNone is the Event.Latency sentinel for events that carry no
// completion latency (drops, admission outcomes, session lifecycle): NaN is
// unmistakable for a real zero-latency sample.
var latencyNone = math.NaN()

// Observer receives scheduling events; wire one through Config.Observer to
// collect custom metrics without touching the engine. It is the engine's only
// hook: device stalls arrive as events too.
type Observer interface {
	Observe(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Observe implements Observer.
func (f ObserverFunc) Observe(e Event) { f(e) }
