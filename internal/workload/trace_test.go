package workload

import (
	"reflect"
	"testing"
)

func TestTraceRecorderLifetimes(t *testing.T) {
	r := NewTraceRecorder()
	r.Start(3, 5.0, "4fps")
	r.Start(1, 0.0, "2fps")
	r.Start(2, 2.5, "2fps")
	r.End(1, 8.0)
	r.End(9, 4.0) // unknown session: ignored
	if len(r.events) != 3 {
		t.Fatalf("recorded %d sessions, want 3", len(r.events))
	}
	got := r.Events()
	want := []TraceEvent{
		{At: 0.0, Class: "2fps", Lifetime: 8.0},
		{At: 2.5, Class: "2fps"},
		{At: 5.0, Class: "4fps"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Events = %+v, want %+v", got, want)
	}
}

func TestTraceRecorderRestartOverwrites(t *testing.T) {
	r := NewTraceRecorder()
	r.Start(1, 1.0, "2fps")
	r.End(1, 2.0)
	r.Start(1, 3.0, "4fps")
	got := r.Events()
	if len(got) != 1 || got[0] != (TraceEvent{At: 3.0, Class: "4fps"}) {
		t.Fatalf("restart must overwrite: %+v", got)
	}
}

func TestTraceRecorderStableTies(t *testing.T) {
	r := NewTraceRecorder()
	r.Start(2, 1.0, "b")
	r.Start(1, 1.0, "a")
	got := r.Events()
	if got[0].Class != "b" || got[1].Class != "a" {
		t.Fatalf("simultaneous arrivals must keep recording order: %+v", got)
	}
}
