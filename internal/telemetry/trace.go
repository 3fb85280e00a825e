package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"vrex/internal/serve"
)

// traceEvent is one Chrome trace-event record (the JSON object format the
// Perfetto / chrome://tracing loaders accept). Timestamps and durations are
// microseconds of simulated time.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Lane layout: pid 1 holds one thread per device (batches, paging stalls
// and migration legs as complete slices), pid 2 one thread per session
// (the presence-window slice plus instant marks for every session event).
const (
	pidDevices  = 1
	pidSessions = 2
)

// WriteTrace emits the collected run as Chrome trace-event JSON. Events
// within each lane are sorted by timestamp (ties keep delivery order), so
// every lane is monotone regardless of the engine's scheduler-plane
// delivery order. Deterministic: identical streams produce identical bytes.
func (c *Collector) WriteTrace(w io.Writer) error {
	spans, err := BuildSpans(c.Events())
	if err != nil {
		return err
	}
	var out []traceEvent
	meta := func(pid int, name string) {
		out = append(out, traceEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name}})
	}
	thread := func(pid, tid int, name string) {
		out = append(out, traceEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name}})
	}
	meta(pidDevices, "devices")
	meta(pidSessions, "sessions")

	// Device lanes: steps (batch-formed events) and stalls as complete slices.
	devLanes := map[int][]traceEvent{}
	for _, ev := range c.Events() {
		te := traceEvent{Ph: "X", Pid: pidDevices, Tid: ev.Device, Ts: us(ev.Time), Dur: us(ev.Latency)}
		switch ev.Kind {
		case serve.EventBatchFormed:
			te.Name, te.Cat = fmt.Sprintf("batch x%d", ev.Batch), "batch"
			te.Args = map[string]any{"head_session": ev.Session, "size": ev.Batch}
		case serve.EventPageIn, serve.EventPageOut, serve.EventMigrateSend, serve.EventMigrateRecv:
			te.Name, te.Cat = ev.Kind.String(), "stall"
		default:
			continue // session-lane marks below
		}
		devLanes[ev.Device] = append(devLanes[ev.Device], te)
	}
	devs := make([]int, 0, len(devLanes))
	for d := range devLanes {
		devs = append(devs, d)
	}
	sort.Ints(devs)
	for _, d := range devs {
		thread(pidDevices, d, fmt.Sprintf("device %d", d))
		lane := devLanes[d]
		sort.SliceStable(lane, func(i, j int) bool { return lane[i].Ts < lane[j].Ts })
		out = append(out, lane...)
	}

	// Session lanes: the presence window as one slice, every event a mark.
	for _, sp := range spans {
		thread(pidSessions, sp.Session, fmt.Sprintf("session %d (%s)", sp.Session, sp.Class))
		lane := []traceEvent{{
			Name: fmt.Sprintf("session %d", sp.Session), Ph: "X", Cat: "session",
			Pid: pidSessions, Tid: sp.Session,
			Ts: us(sp.Start), Dur: us(sp.End - sp.Start),
			Args: map[string]any{"class": sp.Class, "frames": sp.Frames, "drops": sp.Drops},
		}}
		for _, ev := range sp.Events {
			te := traceEvent{
				Name: ev.Kind.String(), Ph: "i", S: "t", Cat: "event",
				Pid: pidSessions, Tid: sp.Session, Ts: us(ev.Time),
				Args: map[string]any{"device": ev.Device, "kv": ev.KV},
			}
			if !math.IsNaN(ev.Latency) {
				te.Args["latency_ms"] = ev.Latency * 1e3
			}
			lane = append(lane, te)
		}
		sort.SliceStable(lane, func(i, j int) bool { return lane[i].Ts < lane[j].Ts })
		out = append(out, lane...)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}{out})
}

// us converts simulated seconds to trace microseconds.
func us(sec float64) float64 { return sec * 1e6 }
