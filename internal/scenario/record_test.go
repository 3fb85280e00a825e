package scenario

import (
	"reflect"
	"testing"

	"vrex/internal/serve"
	"vrex/internal/workload"
)

func recStart(r *Recorder, session int, at float64, class string) {
	r.Observe(serve.Event{Kind: serve.EventSessionStart, Session: session, Time: at, Class: class})
}

func recEnd(r *Recorder, session int, at float64) {
	r.Observe(serve.Event{Kind: serve.EventSessionEnd, Session: session, Time: at})
}

// TestRecorderLifetimes: an end sets the lifetime since the start, an end
// for a session never seen starting is ignored, a session never seen ending
// keeps Lifetime 0, and Events sorts by arrival time.
func TestRecorderLifetimes(t *testing.T) {
	r := NewRecorder()
	recStart(r, 3, 5.0, "4fps")
	recStart(r, 1, 0.0, "2fps")
	recStart(r, 2, 2.5, "2fps")
	recEnd(r, 1, 8.0)
	recEnd(r, 9, 4.0) // unseen session: ignored
	r.Observe(serve.Event{Kind: serve.EventFrameServed, Session: 2, Time: 3.0})
	got := r.Events()
	want := []workload.TraceEvent{
		{At: 0.0, Class: "2fps", Lifetime: 8.0},
		{At: 2.5, Class: "2fps"},
		{At: 5.0, Class: "4fps"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Events = %+v, want %+v", got, want)
	}
}

// TestRecorderRestartOverwrites: a repeated start for the same session
// replaces its earlier record, lifetime included.
func TestRecorderRestartOverwrites(t *testing.T) {
	r := NewRecorder()
	recStart(r, 1, 1.0, "2fps")
	recEnd(r, 1, 2.0)
	recStart(r, 1, 3.0, "4fps")
	got := r.Events()
	if len(got) != 1 || got[0] != (workload.TraceEvent{At: 3.0, Class: "4fps"}) {
		t.Fatalf("restart must overwrite: %+v", got)
	}
}

// TestRecorderStableTies: simultaneous arrivals keep recording order.
func TestRecorderStableTies(t *testing.T) {
	r := NewRecorder()
	recStart(r, 2, 1.0, "b")
	recStart(r, 1, 1.0, "a")
	got := r.Events()
	if len(got) != 2 || got[0].Class != "b" || got[1].Class != "a" {
		t.Fatalf("simultaneous arrivals must keep recording order: %+v", got)
	}
}
