package hwsim

import (
	"strings"
	"testing"
)

func TestParsePolicyDefaultsMatchConstructors(t *testing.T) {
	cases := map[string]PolicyModel{
		"flexgen":    FlexGenModel(),
		"infinigen":  InfiniGenModel(),
		"infinigenp": InfiniGenPModel(),
		"rekv":       ReKVModel(),
		"resv":       ReSVModel(),
		"resv-gpu":   ReSVOnGPUModel(),
		"dense":      DenseModel(),
		"oaken":      OakenModel(),
	}
	for spec, want := range cases {
		got, err := ParsePolicy(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if got != want {
			t.Fatalf("%s: %+v != constructor %+v", spec, got, want)
		}
	}
}

func TestParsePolicyOverrides(t *testing.T) {
	m, err := ParsePolicy("rekv(frame=0.58,text=0.31)")
	if err != nil {
		t.Fatal(err)
	}
	if m.FrameRatio != 0.58 || m.TextRatio != 0.31 {
		t.Fatalf("overrides not applied: %+v", m)
	}
	// Untouched fields keep the constructor defaults.
	want := ReKVModel()
	if m.SegmentTokens != want.SegmentTokens || m.Pred != want.Pred {
		t.Fatalf("defaults clobbered: %+v", m)
	}
}

func TestParsePolicyAliases(t *testing.T) {
	a, err := ParsePolicy("resvongpu")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ParsePolicy("resv-gpu")
	if a != b {
		t.Fatal("alias diverged from canonical name")
	}
}

func TestParsePolicyErrors(t *testing.T) {
	cases := []struct{ spec, wantSub string }{
		{"nosuch", "unknown policy"},
		{"rekv(typo=1)", "does not accept"},
		{"rekv(frame=1.5)", "out of [0,1]"},
		{"rekv(segment=0)", ">= 1"},
		{"rekv(quantbits=0)", "out of [1,16]"},
		{"rekv(frame=", "parenthesis"},
		// Non-finite values are not numbers: NaN passed the [0,1] check and
		// priced a negative DRE busy time.
		{"resv(frame=nan)", `parameter frame: bad number "nan"`},
		{"resv(segment=inf)", `parameter segment: bad number "inf"`},
		{"resv(reuse=-Infinity)", `parameter reuse: bad number "-Infinity"`},
	}
	for _, c := range cases {
		_, err := ParsePolicy(c.spec)
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParsePolicy(%q) err = %v, want containing %q", c.spec, err, c.wantSub)
		}
	}
}

func TestPolicyModelNamesSorted(t *testing.T) {
	names := PolicyModelNames()
	if len(names) < 8 {
		t.Fatalf("missing registrations: %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted/unique: %v", names)
		}
	}
}
