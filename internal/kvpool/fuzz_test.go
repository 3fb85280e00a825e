package kvpool

import (
	"strings"
	"testing"

	"vrex/scenarios"
)

// FuzzParseSpill drives the spill-policy parser with arbitrary strings:
// ParseSpill must never panic, and an accepted config's Name (what vrex-sim
// prints and the scenario marshaller writes) must parse back to the same
// Name. Seeded with the committed suite's spill lines and the non-finite
// values the policyspec grammar rejects.
func FuzzParseSpill(f *testing.F) {
	for _, name := range scenarios.Names() {
		src, _ := scenarios.Source(name)
		for _, line := range strings.Split(string(src), "\n") {
			if v, ok := strings.CutPrefix(line, "spill "); ok {
				f.Add(v)
			}
		}
	}
	for _, spec := range append(SpillNames(),
		"spill(evict=largest,pages=16)", "spill(pages=nan)", "spill(pages=inf)", "spill(pages=-Infinity)") {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseSpill(spec)
		if err != nil {
			return
		}
		d, err := ParseSpill(c.Name())
		if err != nil || d.Name() != c.Name() {
			t.Fatalf("ParseSpill(%q) named %q, which parses to %q, %v", spec, c.Name(), d.Name(), err)
		}
	})
}
