package cluster

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"vrex/scenarios"
)

// FuzzParseFaults drives the fault-list parser with arbitrary strings:
// ParseFaults must never panic, every fault it accepts must be one Run can
// schedule (a finite At >= 0, Recover 0 or after At, Node >= 0), and
// FormatFaults must re-parse to an equal list (the scenario marshaller's
// fixed point). Seeded with the committed suite's fault lines and the
// non-finite values the policyspec grammar rejects.
func FuzzParseFaults(f *testing.F) {
	for _, name := range scenarios.Names() {
		src, _ := scenarios.Source(name)
		for _, line := range strings.Split(string(src), "\n") {
			if v, ok := strings.CutPrefix(line, "fault "); ok {
				f.Add(v)
			}
		}
	}
	for _, spec := range []string{
		"", "drain(node=1,at=30,recover=60);fail(node=0,at=80)",
		"drain(node=1,at=nan)", "drain(node=1,at=2,recover=nan)",
		"fail(node=0,at=inf)", "drain(node=0,at=1,recover=+Inf)", "fail(node=-Infinity,at=1)",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		fs, err := ParseFaults(spec)
		if err != nil {
			return
		}
		for _, flt := range fs {
			if !(flt.At >= 0) || math.IsInf(flt.At, 0) {
				t.Fatalf("ParseFaults(%q) accepted at=%v", spec, flt.At)
			}
			if flt.Recover != 0 && (!(flt.Recover > flt.At) || math.IsInf(flt.Recover, 0)) {
				t.Fatalf("ParseFaults(%q) accepted recover=%v after at=%v", spec, flt.Recover, flt.At)
			}
			if flt.Node < 0 {
				t.Fatalf("ParseFaults(%q) accepted node=%d", spec, flt.Node)
			}
		}
		canon := FormatFaults(fs)
		again, err := ParseFaults(canon)
		if err != nil || !reflect.DeepEqual(again, fs) {
			t.Fatalf("ParseFaults(%q) = %+v formats as %q, which parses to %+v, %v", spec, fs, canon, again, err)
		}
	})
}
