package cluster

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"vrex/internal/hwsim"
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

// FuzzParseNodes drives the node-list parser (vrex-sim -nodes and the
// scenario nodes line) with arbitrary strings: ParseNodes must never panic,
// and every list it accepts must round-trip through FormatNodes to an equal
// list. Seeded with the committed suite's nodes lines, the CLI examples,
// every device name and non-finite device counts.
func FuzzParseNodes(f *testing.F) {
	for _, name := range scenarios.Names() {
		src, _ := scenarios.Source(name)
		for _, line := range strings.Split(string(src), "\n") {
			if v, ok := strings.CutPrefix(line, "nodes "); ok {
				f.Add(v)
			}
		}
	}
	for _, spec := range append(hwsim.DeviceNames(),
		"vrex8:2@us,vrex8:2@eu", "vrex48:4,vrex48:4,vrex48:4", "a100:4@us-east,vrex8:2@eu,agx@edge",
		"vrex8:nan", "vrex8:inf@us", "agx:+Inf", "a100:-Infinity@eu", "vrex8@", ",") {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		nodes, err := ParseNodes(spec)
		if err != nil {
			return
		}
		canon := FormatNodes(nodes)
		again, err := ParseNodes(canon)
		if err != nil || !reflect.DeepEqual(again, nodes) {
			t.Fatalf("ParseNodes(%q) = %+v formats as %q, which parses to %+v, %v", spec, nodes, canon, again, err)
		}
	})
}
