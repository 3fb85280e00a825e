package experiments

import (
	"bytes"
	"runtime"
	"testing"

	"vrex/internal/report"
)

// TestTelemetryWorkerInvariance requires the rendered telemetry experiment —
// attribution, stalls, spans and exporter footprints — to be byte-identical
// at Workers 1, 4 and GOMAXPROCS: the observability plane consumes the
// single-threaded device loop's deterministic streams, so worker
// parallelism must never reach the exporters.
func TestTelemetryWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the cluster scenario three times; skipped in -short")
	}
	render := func(workers int) []byte {
		opts := goldenOptions(true)
		opts.Parallel = workers
		var buf bytes.Buffer
		if err := RunMany([]string{"telemetry"}, opts, &buf, report.FormatText); err != nil {
			t.Fatalf("run at %d workers: %v", workers, err)
		}
		return buf.Bytes()
	}
	ref := render(1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := render(workers); !bytes.Equal(got, ref) {
			t.Fatalf("telemetry output at %d workers diverged from workers=1\n--- got ---\n%s\n--- want ---\n%s",
				workers, got, ref)
		}
	}
}
