package degrade

import (
	"strings"
	"testing"

	"vrex/scenarios"
)

// FuzzParseDegrade drives the degradation-policy parser (vrex-sim -degrade
// and the scenario degrade line) with arbitrary strings: Parse must never
// panic, and every policy it accepts must have Step in (0,1) and Floor in
// (0,1], the ranges Budget and MaxLevel rely on. Seeded with every
// controller name, the committed suite's degrade lines, the CLI examples and
// non-finite values.
func FuzzParseDegrade(f *testing.F) {
	for _, name := range Names() {
		f.Add(name)
	}
	for _, name := range scenarios.Names() {
		src, _ := scenarios.Source(name)
		for _, line := range strings.Split(string(src), "\n") {
			if v, ok := strings.CutPrefix(line, "degrade "); ok {
				f.Add(v)
			}
		}
	}
	for _, spec := range []string{
		"", "none", "hybrid(lo=0.15,hi=0.4)", "pressure(lo=0.1,hi=0.3)", "static(budget=0.5,floor=0.4)",
		"pressure(step=nan)", "static(floor=inf)", "hybrid(lo=NaN)", "pressure(hi=+Inf,step=0.5)",
		"static(budget=-Infinity)",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil || p == nil {
			return
		}
		if !(p.Step > 0 && p.Step < 1) || !(p.Floor > 0 && p.Floor <= 1) {
			t.Fatalf("Parse(%q) accepted step=%v floor=%v", spec, p.Step, p.Floor)
		}
	})
}
