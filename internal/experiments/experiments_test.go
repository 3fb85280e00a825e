package experiments

import (
	"bytes"
	"strings"
	"testing"

	"vrex/internal/report"
)

func quickOpts() Options {
	return Options{Sessions: 2, Seed: 7, Quick: true}
}

func TestIDsComplete(t *testing.T) {
	want := []string{
		"fig4a", "fig4b", "fig4c", "fig5", "fig7", "fig13", "fig14", "fig15",
		"fig16", "fig17", "fig18", "fig19", "fig20", "tab1", "tab2", "tab3",
		"sweep-thwics", "sweep-thhd", "sweep-nhp", "scale", "multiturn",
		"fleet", "memory", "slo", "scenarios", "cluster", "pareto",
		"telemetry",
	}
	ids := IDs()
	got := map[string]bool{}
	for _, id := range ids {
		got[id] = true
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("missing experiment %q", id)
		}
	}
	if len(ids) != len(want) {
		t.Errorf("have %d experiments, want %d", len(ids), len(want))
	}
}

func TestRunUnknownID(t *testing.T) {
	if err := RunMany([]string{"nope"}, quickOpts(), &bytes.Buffer{}, report.FormatText); err == nil {
		t.Fatal("unknown ID should error")
	}
}

// Fast, pure perf-plane experiments: verify each produces non-empty tables
// and key headline numbers.

func TestFig4a(t *testing.T) {
	ts := Fig4aMemoryFootprint(quickOpts())
	if len(ts) != 1 || ts[0].NumRows() == 0 {
		t.Fatal("fig4a empty")
	}
	out := ts[0].String()
	// The cache must exceed 32 GB within minutes.
	if !strings.Contains(out, "true") {
		t.Fatal("fig4a should show capacity exceeded")
	}
}

func TestFig4b(t *testing.T) {
	ts := Fig4bLatencyBreakdown(quickOpts())
	if len(ts) != 1 || ts[0].NumRows() != 6 {
		t.Fatal("fig4b should have 6 KV points")
	}
	// Prefill dominance at long contexts (paper: 83% at 80K).
	out := ts[0].String()
	if !strings.Contains(out, "80000") {
		t.Fatal("missing 80K row")
	}
}

func TestFig4c(t *testing.T) {
	ts := Fig4cRetrievalOverhead(quickOpts())
	if len(ts) != 1 || ts[0].NumRows() < 2 {
		t.Fatal("fig4c malformed")
	}
}

func TestFig13(t *testing.T) {
	ts := Fig13LatencyEnergy(quickOpts())
	if len(ts) != 8 { // 4 tables x 2 tiers
		t.Fatalf("fig13 tables = %d, want 8", len(ts))
	}
	for _, tb := range ts {
		if tb.NumRows() == 0 {
			t.Fatalf("empty table %q", tb.Title)
		}
	}
}

func TestFig14(t *testing.T) {
	ts := Fig14E2EBreakdown(quickOpts())
	if len(ts) != 1 || ts[0].NumRows() != 20 { // 5 kv x 4 systems
		t.Fatalf("fig14 rows = %d, want 20", ts[0].NumRows())
	}
}

func TestFig15(t *testing.T) {
	ts := Fig15Throughput(quickOpts())
	out := ts[0].String()
	if !strings.Contains(out, "OOM") {
		t.Fatal("fig15 must show OOM points")
	}
	if !strings.Contains(out, "V-Rex8") {
		t.Fatal("fig15 missing V-Rex8 row")
	}
}

func TestFig16(t *testing.T) {
	ts := Fig16Ablation(quickOpts())
	if ts[0].NumRows() != 4 {
		t.Fatal("fig16 should have 4 ablation steps")
	}
}

func TestFig17(t *testing.T) {
	ts := Fig17Bandwidth(quickOpts())
	if ts[0].NumRows() < 10 {
		t.Fatal("fig17 trace too short")
	}
}

func TestFig18(t *testing.T) {
	ts := Fig18Roofline(quickOpts())
	if ts[0].NumRows() != 3 {
		t.Fatal("fig18 should have 3 systems")
	}
}

func TestTab1(t *testing.T) {
	ts := Table1Hardware(quickOpts())
	if ts[0].NumRows() != 4 {
		t.Fatal("tab1 should list 4 devices")
	}
}

func TestTab3(t *testing.T) {
	ts := Table3AreaPower(quickOpts())
	if len(ts) != 2 {
		t.Fatal("tab3 should emit 2 tables")
	}
	if !strings.Contains(ts[0].String(), "KVMU") {
		t.Fatal("tab3 missing KVMU row")
	}
}

// Functional experiments (slower): run in quick mode.

func TestFig5(t *testing.T) {
	ts := Fig5Pipeline(quickOpts())
	if len(ts) != 4 { // 3 schedules + summary
		t.Fatalf("fig5 tables = %d, want 4", len(ts))
	}
	// Summary: each stage strictly faster than the previous.
	out := ts[3].String()
	if !strings.Contains(out, "vanilla") {
		t.Fatal("fig5 summary missing vanilla row")
	}
}

func TestFig7(t *testing.T) {
	ts := Fig7Similarity(quickOpts())
	if len(ts) != 2 {
		t.Fatal("fig7 should emit 2 tables")
	}
}

func TestFig20(t *testing.T) {
	ts := Fig20RatioDistribution(quickOpts())
	if len(ts) != 3 {
		t.Fatal("fig20 should emit 3 tables")
	}
	if ts[0].NumRows() != 6 {
		t.Fatalf("fig20 per-layer rows = %d, want 6", ts[0].NumRows())
	}
}

func TestTab2Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("functional accuracy sweep")
	}
	ts := Table2Accuracy(quickOpts())
	if len(ts) != 2 || ts[0].NumRows() != 5 {
		t.Fatal("tab2 malformed")
	}
}

func TestFig19Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("functional accuracy sweep")
	}
	ts := Fig19ReSVAblation(quickOpts())
	if ts[0].NumRows() != 3 {
		t.Fatal("fig19 should have 3 variants")
	}
	// Full ReSV must have the largest speedup.
	out := ts[0].String()
	if !strings.Contains(out, "ReSV") {
		t.Fatal("fig19 missing ReSV row")
	}
}

func TestScale(t *testing.T) {
	ts := ScaleServing(quickOpts())
	if len(ts) != 2 {
		t.Fatal("scale should emit 2 tables")
	}
	if ts[0].NumRows() != 6 {
		t.Fatalf("scale capacity rows = %d, want 6", ts[0].NumRows())
	}
}

func TestMultiTurnQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("functional multi-turn sweep")
	}
	ts := MultiTurnCoherence(quickOpts())
	if len(ts) != 1 || ts[0].NumRows() != 3 {
		t.Fatal("multiturn malformed")
	}
}

func TestSweepsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("functional sweeps")
	}
	for name, r := range map[string]Runner{
		"thwics": SweepThWics, "thhd": SweepThHD, "nhp": SweepNHp,
	} {
		ts := r(quickOpts())
		if len(ts) != 1 || ts[0].NumRows() < 2 {
			t.Fatalf("sweep %s malformed", name)
		}
	}
}

func TestRunRendersAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, id := range []string{"fig4a", "fig13", "fig15", "tab1", "tab3"} {
		var buf bytes.Buffer
		if err := RunMany([]string{id}, quickOpts(), &buf, report.FormatText); err != nil {
			t.Fatalf("RunMany(%s): %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("RunMany(%s) produced no output", id)
		}
	}
}
