package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"vrex/internal/report"
)

// The golden files under testdata/golden pin every experiment's rendered
// output to the bytes produced before the Scenario API redesign: refactors of
// the serving/policy layers must keep pre-existing experiment output
// byte-identical. Regenerate (only when an output change is intentional)
// with:
//
//	go run ./cmd/vrex-bench -exp <id> -quick -parallel 1 \
//	    > internal/experiments/testdata/golden/quick/<id>.txt
//	go run ./cmd/vrex-bench -exp scale -parallel 1 \
//	    > internal/experiments/testdata/golden/full/scale.txt

// goldenHeavy marks experiments that take seconds even in Quick mode; their
// golden comparison is skipped under -short (the CI bench smoke), matching
// bench_test.go.
var goldenHeavy = map[string]bool{
	"fig19":        true,
	"multiturn":    true,
	"sweep-nhp":    true,
	"sweep-thhd":   true,
	"sweep-thwics": true,
	"tab2":         true,
}

// goldenOptions mirrors the vrex-bench defaults the files were captured with
// (-quick -parallel 1, sessions 10, seed 7).
func goldenOptions(quick bool) Options {
	return Options{Sessions: 10, Seed: 7, Quick: quick, Parallel: 1}
}

func checkGolden(t *testing.T, id, path string, opts Options) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	var buf bytes.Buffer
	if err := RunMany([]string{id}, opts, &buf, report.FormatText); err != nil {
		t.Fatalf("run %s: %v", id, err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("%s output diverged from golden %s\n--- got ---\n%s\n--- want ---\n%s",
			id, path, buf.String(), want)
	}
}

// TestGoldenQuickOutputs runs every experiment registered before the redesign
// in Quick mode and requires byte-identical output to the pinned goldens.
func TestGoldenQuickOutputs(t *testing.T) {
	dir := filepath.Join("testdata", "golden", "quick")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read golden dir: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("no golden files")
	}
	for _, e := range entries {
		id := e.Name()[:len(e.Name())-len(".txt")]
		t.Run(id, func(t *testing.T) {
			if testing.Short() && goldenHeavy[id] {
				t.Skipf("%s is heavy even in Quick mode; skipped under -short", id)
			}
			checkGolden(t, id, filepath.Join(dir, e.Name()), goldenOptions(true))
		})
	}
}

// TestGoldenCoversEveryExperiment requires a quick golden for every
// registered experiment, so none ships unpinned.
func TestGoldenCoversEveryExperiment(t *testing.T) {
	for _, id := range IDs() {
		path := filepath.Join("testdata", "golden", "quick", id+".txt")
		if _, err := os.Stat(path); err != nil {
			t.Errorf("experiment %s has no quick golden: %v", id, err)
		}
	}
}

// TestGoldenFullScale pins the full-fidelity scale study (the experiment most
// exposed to the serve redesign) at its non-Quick operating point.
func TestGoldenFullScale(t *testing.T) {
	checkGolden(t, "scale", filepath.Join("testdata", "golden", "full", "scale.txt"), goldenOptions(false))
}
