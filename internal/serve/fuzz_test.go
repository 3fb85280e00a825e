package serve

import "testing"

// FuzzParseScheduler drives the scheduler spec parser with arbitrary
// strings: ParseScheduler must never panic, and whenever it accepts a spec
// and returns a policy, that policy's Name must parse back to a policy with
// the same Name (vrex-sim prints the name as the run's scheduler).
func FuzzParseScheduler(f *testing.F) {
	for _, spec := range []string{"fifo", "edf", "priority", "none", "", "edf(x=1)"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseScheduler(spec)
		if err != nil || p == nil {
			return
		}
		q, err := ParseScheduler(p.Name())
		if err != nil || q == nil || q.Name() != p.Name() {
			t.Fatalf("ParseScheduler(%q) named %q, which parses to %v, %v", spec, p.Name(), q, err)
		}
	})
}
