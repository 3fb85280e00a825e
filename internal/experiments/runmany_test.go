package experiments

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"vrex/internal/report"
)

// TestRunManyRejectsUnknownIDUpfront: an unknown id anywhere in the list
// must fail before any runner starts — nothing may be written to w.
func TestRunManyRejectsUnknownIDUpfront(t *testing.T) {
	var buf bytes.Buffer
	err := RunMany([]string{"tab1", "nosuch", "tab3"}, goldenOptions(true), &buf, report.FormatText)
	if err == nil || !strings.Contains(err.Error(), `"nosuch"`) {
		t.Fatalf("err = %v, want unknown-experiment error naming nosuch", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("writer received %d bytes before the unknown id was rejected", buf.Len())
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct {
	n   int
	err error
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	if len(p) > w.n {
		p = p[:w.n]
	}
	w.n -= len(p)
	return len(p), w.err
}

// TestRunManyPropagatesWriteError: a failing writer's error must surface as
// RunMany's return value instead of being swallowed by the fan-in.
func TestRunManyPropagatesWriteError(t *testing.T) {
	sentinel := errors.New("disk full")
	err := RunMany([]string{"tab1"}, goldenOptions(true), &failWriter{err: sentinel}, report.FormatText)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the writer's error", err)
	}
	// Also mid-stream: accept a little output, then fail.
	err = RunMany([]string{"tab1", "tab3"}, goldenOptions(true), &failWriter{n: 10, err: sentinel}, report.FormatText)
	if !errors.Is(err, sentinel) {
		t.Fatalf("mid-stream err = %v, want the writer's error", err)
	}
}

// TestRunManyJoinsRunnersOnWriteError: a write error must not detach the
// supervisor — RunMany waits for the remaining runners, so a later runner's
// panic is re-raised rather than lost.
func TestRunManyJoinsRunnersOnWriteError(t *testing.T) {
	registry["test-ok"] = func(Options) []*report.Table { return []*report.Table{report.NewTable("ok", "x")} }
	registry["test-panic"] = func(Options) []*report.Table { panic("runner failed") }
	defer func() {
		delete(registry, "test-ok")
		delete(registry, "test-panic")
	}()
	var err error
	recovered := func() (r any) {
		defer func() { r = recover() }()
		err = RunMany([]string{"test-ok", "test-panic"}, Options{Parallel: 1}, &failWriter{err: errors.New("disk full")}, report.FormatText)
		return nil
	}()
	if recovered != "runner failed" {
		t.Fatalf("RunMany returned %v and re-raised %v, want the runner's panic", err, recovered)
	}
}
