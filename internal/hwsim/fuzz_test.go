package hwsim

import (
	"math"
	"strings"
	"testing"

	"vrex/scenarios"
)

// FuzzParsePolicy drives the performance-plane policy parser with arbitrary
// strings: ParsePolicy must never panic, and every model it accepts must be
// one the cost model can price — frame, text and reuse ratios in [0,1],
// finite segment and cluster sizes >= 1, and quantbits in [1,16]. Seeded
// with every registered name, the committed suite's policy lines and the
// non-finite values the policyspec grammar rejects.
func FuzzParsePolicy(f *testing.F) {
	for _, name := range PolicyModelNames() {
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
		"rekv(frame=0.58,text=0.31)", "resv(segment=4,cluster=8,reuse=0.5,quantbits=4)",
		"resv(frame=nan)", "resv(text=NaN)", "resv(segment=inf)", "resv(cluster=+Inf)",
		"resv(reuse=-Infinity)", "resv(quantbits=nan)",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := ParsePolicy(spec)
		if err != nil {
			return
		}
		for _, r := range []float64{m.FrameRatio, m.TextRatio, m.ResidentReuse} {
			if !(r >= 0 && r <= 1) {
				t.Fatalf("ParsePolicy(%q) accepted ratio %v: %+v", spec, r, m)
			}
		}
		for _, n := range []float64{m.SegmentTokens, m.ClusterCompression} {
			if !(n >= 1) || math.IsInf(n, 0) {
				t.Fatalf("ParsePolicy(%q) accepted size %v: %+v", spec, n, m)
			}
		}
		if m.KVQuantBits < 1 || m.KVQuantBits > 16 {
			t.Fatalf("ParsePolicy(%q) accepted quantbits=%d", spec, m.KVQuantBits)
		}
	})
}
