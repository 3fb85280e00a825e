package retrieval_test

import (
	"strings"
	"testing"

	"vrex/internal/retrieval"
	"vrex/scenarios"
)

// FuzzFromSpec drives the functional-plane policy parser (vrex-accuracy
// -policy) with arbitrary strings: FromSpec must never panic or kill the
// process, and every spec it accepts must build a policy with a non-empty
// Name. Seeded with every registered name, the committed suite's policy
// lines, the CLI examples, non-finite values and an N_hp so large its
// hyperplanes would not fit in memory (it must be an error, not a crash).
func FuzzFromSpec(f *testing.F) {
	for _, name := range retrieval.Names() {
		f.Add(name)
	}
	for _, name := range scenarios.Names() {
		src, _ := scenarios.Source(name)
		for _, line := range strings.Split(string(src), "\n") {
			if v, ok := strings.CutPrefix(line, "policy "); ok {
				f.Add(v)
			}
		}
	}
	for _, spec := range []string{
		"resv", "rekv(frame=0.58,text=0.31)", "resv(nhp=16,thhd=3)", "resv-nocluster(thwics=0.5)",
		"resv(nhp=2000000000)", "resv(nhp=1025)", "resv(thwics=nan)", "rekv(frame=inf)",
		"infinigen(text=NaN)", "infinigenp(frame=-Infinity)", "resv(recent=+Inf)",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := retrieval.FromSpec(spec, modelCfg())
		if err != nil {
			return
		}
		if p == nil || p.Name() == "" {
			t.Fatalf("FromSpec(%q) accepted the spec but built %v", spec, p)
		}
	})
}
