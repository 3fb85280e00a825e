// Registry tests use an external test package to exercise the registry the
// way CLI and experiment code sees it.
package retrieval_test

import (
	"strings"
	"testing"

	"vrex/internal/core"
	"vrex/internal/model"
	"vrex/internal/retrieval"
)

func modelCfg() model.Config { return model.DefaultConfig() }

func TestFromSpecBuildsEveryRegisteredPolicy(t *testing.T) {
	wantNames := map[string]string{
		"dense":          "VideoLLM-Online",
		"flexgen":        "FlexGen",
		"infinigen":      "InfiniGen",
		"infinigenp":     "InfiniGenP",
		"rekv":           "ReKV",
		"resv":           "ReSV",
		"resv-nocluster": "ReSV w/o Clustering",
	}
	for spec, want := range wantNames {
		p, err := retrieval.FromSpec(spec, modelCfg())
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if p.Name() != want {
			t.Fatalf("%s: Name() = %q, want %q", spec, p.Name(), want)
		}
	}
}

func TestNamesIncludeSelfRegisteredReSV(t *testing.T) {
	names := retrieval.Names()
	joined := strings.Join(names, ",")
	for _, want := range []string{"resv", "rekv", "dense"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("Names() = %v missing %q", names, want)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted/unique: %v", names)
		}
	}
}

func TestFromSpecParamsReachPolicies(t *testing.T) {
	p, err := retrieval.FromSpec("rekv(frame=0.58,text=0.31,framesize=4)", modelCfg())
	if err != nil {
		t.Fatal(err)
	}
	r, ok := p.(*retrieval.ReKV)
	if !ok {
		t.Fatalf("got %T", p)
	}
	if r.FrameBudget != 0.58 || r.TextBudget != 0.31 || r.FrameSize != 4 {
		t.Fatalf("params not applied: %+v", r)
	}

	p, err = retrieval.FromSpec("resv(thwics=0.4,nhp=16)", modelCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(*core.ReSV); !ok {
		t.Fatalf("got %T", p)
	}
}

func TestFromSpecErrors(t *testing.T) {
	cases := []struct{ spec, wantSub string }{
		{"nosuch", "unknown policy"},
		{"rekv(typo=1)", "does not accept"},
		{"rekv(frame=0)", "out of (0,1]"},
		{"infinigen(text=2)", "out of (0,1]"},
		{"rekv(framesize=0)", "framesize"},
		{"resv(thwics=7)", "ThWics"},
		{"resv(nhp=2000000000)", "NHp"},
		{"dense(frame=0.5)", "does not accept"},
	}
	for _, c := range cases {
		_, err := retrieval.FromSpec(c.spec, modelCfg())
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("FromSpec(%q) err = %v, want containing %q", c.spec, err, c.wantSub)
		}
	}
}
