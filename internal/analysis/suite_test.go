package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vrex/internal/analysis"
	"vrex/internal/analysis/analysistest"
)

func corpus(name string) string { return filepath.Join("testdata", "src", name) }

func TestDeterminismCorpus(t *testing.T) {
	analysistest.Run(t, corpus("determinism"), analysis.Determinism)
}

func TestNoAllocCorpus(t *testing.T) {
	analysistest.Run(t, corpus("noalloc"), analysis.NoAlloc)
}

func TestPolicyRegCorpus(t *testing.T) {
	analysistest.Run(t, corpus("policyreg"), analysis.PolicyReg)
}

func TestExhaustiveCorpus(t *testing.T) {
	analysistest.Run(t, corpus("exhaustive"), analysis.Exhaustive)
}

func TestFloatDetCorpus(t *testing.T) {
	analysistest.Run(t, corpus("floatdet"), analysis.FloatDet)
}

// TestSuiteComplete pins the analyzer roster: vrex-vet -run names and the
// README's Invariants section both key off these.
func TestSuiteComplete(t *testing.T) {
	want := []string{"determinism", "noalloc", "policyreg", "exhaustive", "floatdet"}
	all := analysis.All()
	if len(all) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q lacks doc or run function", a.Name)
		}
	}
}

// TestVetWiredIntoCI is the smoke test that replaced the runtime
// numEventKinds sentinel tests: exhaustiveness (and the rest of the
// invariants) are enforced statically now, so what needs pinning is that the
// static check actually runs — in the Makefile vet target and the CI workflow.
func TestVetWiredIntoCI(t *testing.T) {
	root := filepath.Join("..", "..")
	for _, tc := range []struct{ file, needle string }{
		{"Makefile", "vrex-vet"},
		{"Makefile", "TestNoDeadExports"},
		{filepath.Join(".github", "workflows", "ci.yml"), "vrex-vet"},
	} {
		data, err := os.ReadFile(filepath.Join(root, tc.file))
		if err != nil {
			t.Fatalf("reading %s: %v", tc.file, err)
		}
		if !strings.Contains(string(data), tc.needle) {
			t.Errorf("%s does not run %s; the invariant suite is not wired into CI", tc.file, tc.needle)
		}
	}
}
