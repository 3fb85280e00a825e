package serve

import "testing"

// Switch exhaustiveness over EventKind is enforced statically: the
// `exhaustive` analyzer in internal/analysis (run by `make vet` and the CI
// vet job via cmd/vrex-vet) rejects any switch over a *Kind enum that neither
// covers every constant nor opts out with an explicit default. What remains
// below is the one property the static check cannot see through String()'s
// default clause — that the name table is collision-free and out-of-range
// values read "unknown".

// TestEventKindNamesDistinct pins the EventKind label table: unique names
// per kind, "unknown" beyond the sentinel.
func TestEventKindNamesDistinct(t *testing.T) {
	seen := make(map[string]EventKind, numEventKinds)
	for k := EventKind(0); k < numEventKinds; k++ {
		name := k.String()
		if name == "unknown" {
			t.Fatalf("EventKind(%d) has no String() case", int(k))
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("EventKind(%d) and EventKind(%d) share the name %q", int(prev), int(k), name)
		}
		seen[name] = k
	}
	if EventKind(numEventKinds).String() != "unknown" {
		t.Fatal("out-of-range kinds must read unknown")
	}
}
