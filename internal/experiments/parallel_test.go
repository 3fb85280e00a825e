package experiments

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"vrex/internal/report"
)

// equivalenceIDs is the experiment set for byte-identical checks: it spans
// all three parallel layers (hwsim-plane tables, functional accuracy through
// the sharded ReSV kernel, and the serving simulator) while staying cheap
// enough to run un-gated.
var equivalenceIDs = []string{"fig4a", "fig13", "fig15", "fig20", "scale", "tab1", "tab3"}

// TestParallelRunByteIdentical is the engine's acceptance check: rendering an
// experiment with the sequential engine (Parallel=1) and with a sharded one
// must produce byte-identical tables.
func TestParallelRunByteIdentical(t *testing.T) {
	for _, id := range equivalenceIDs {
		render := func(workers int) string {
			opts := quickOpts()
			opts.Parallel = workers
			var buf bytes.Buffer
			if err := RunMany([]string{id}, opts, &buf, report.FormatText); err != nil {
				t.Fatalf("RunMany(%s, workers=%d): %v", id, workers, err)
			}
			return buf.String()
		}
		seq := render(1)
		for _, w := range []int{2, 8} {
			if par := render(w); par != seq {
				t.Fatalf("experiment %s: workers=%d output diverged from sequential", id, w)
			}
		}
	}
}

// TestMemoryExperimentParallelByteIdentical: the memory-pressure experiment
// drives the churn + spill + admission serving path, whose pool operations
// all live inside the serialised device loop — its rendered output must be
// byte-identical across worker counts 1, 4 and GOMAXPROCS.
func TestMemoryExperimentParallelByteIdentical(t *testing.T) {
	render := func(workers int) string {
		opts := quickOpts()
		opts.Parallel = workers
		var buf bytes.Buffer
		if err := RunMany([]string{"memory"}, opts, &buf, report.FormatText); err != nil {
			t.Fatalf("RunMany(memory, workers=%d): %v", workers, err)
		}
		return buf.String()
	}
	seq := render(1)
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		if par := render(w); par != seq {
			t.Fatalf("memory experiment: workers=%d output diverged from sequential", w)
		}
	}
}

// TestSLOExperimentParallelByteIdentical: the slo experiment drives the
// device loop with batched, deadline-ordered steps — its rendered
// output must be byte-identical across worker counts 1, 4 and GOMAXPROCS.
func TestSLOExperimentParallelByteIdentical(t *testing.T) {
	render := func(workers int) string {
		opts := quickOpts()
		opts.Parallel = workers
		var buf bytes.Buffer
		if err := RunMany([]string{"slo"}, opts, &buf, report.FormatText); err != nil {
			t.Fatalf("RunMany(slo, workers=%d): %v", workers, err)
		}
		return buf.String()
	}
	seq := render(1)
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		if par := render(w); par != seq {
			t.Fatalf("slo experiment: workers=%d output diverged from sequential", w)
		}
	}
}

// TestClusterExperimentParallelByteIdentical: the cluster experiment drives
// the composite balancer, control plane (faults, autoscaling, rebalancing)
// and priced KV migration — its rendered output must be byte-identical
// across worker counts 1, 4 and GOMAXPROCS.
func TestClusterExperimentParallelByteIdentical(t *testing.T) {
	render := func(workers int) string {
		opts := quickOpts()
		opts.Parallel = workers
		var buf bytes.Buffer
		if err := RunMany([]string{"cluster"}, opts, &buf, report.FormatText); err != nil {
			t.Fatalf("RunMany(cluster, workers=%d): %v", workers, err)
		}
		return buf.String()
	}
	seq := render(1)
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		if par := render(w); par != seq {
			t.Fatalf("cluster experiment: workers=%d output diverged from sequential", w)
		}
	}
}

// TestRunManyByteIdenticalAndOrdered: dispatching experiments across workers
// must emit exactly the sequential concatenation, in argument order.
func TestRunManyByteIdenticalAndOrdered(t *testing.T) {
	ids := equivalenceIDs
	seqOpts := quickOpts()
	seqOpts.Parallel = 1
	var want bytes.Buffer
	for _, id := range ids {
		if err := RunMany([]string{id}, seqOpts, &want, report.FormatText); err != nil {
			t.Fatalf("sequential RunMany(%s): %v", id, err)
		}
	}
	parOpts := quickOpts()
	parOpts.Parallel = 4
	var got bytes.Buffer
	if err := RunMany(ids, parOpts, &got, report.FormatText); err != nil {
		t.Fatalf("RunMany: %v", err)
	}
	if got.String() != want.String() {
		t.Fatal("RunMany output differs from sequential concatenation")
	}
}

func TestRunManyUnknownIDRejectedUpfront(t *testing.T) {
	var buf bytes.Buffer
	err := RunMany([]string{"fig4a", "nope"}, quickOpts(), &buf, report.FormatText)
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("unknown id must be rejected, got %v", err)
	}
	if buf.Len() != 0 {
		t.Fatal("no output may be written when validation fails")
	}
}
