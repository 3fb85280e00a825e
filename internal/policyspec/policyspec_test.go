package policyspec

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestParseBareName(t *testing.T) {
	sp, err := Parse("  ReSV ")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name != "resv" {
		t.Fatalf("name %q, want resv", sp.Name)
	}
	if got := sp.Float("frame", 0.5); got != 0.5 {
		t.Fatalf("absent param must default: got %v", got)
	}
	if err := sp.CheckConsumed("frame"); err != nil {
		t.Fatal(err)
	}
}

func TestParseParams(t *testing.T) {
	sp, err := Parse("rekv( frame = 0.58 , text=0.31, size=10 )")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Float("frame", 0) != 0.58 || sp.Float("text", 0) != 0.31 {
		t.Fatal("params not parsed")
	}
	if sp.Int("size", 0) != 10 {
		t.Fatal("int param not parsed")
	}
	if err := sp.CheckConsumed("frame", "text", "size"); err != nil {
		t.Fatal(err)
	}
}

func TestUnusedReported(t *testing.T) {
	sp, err := Parse("resv(typo=1,other=2)")
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.Unused(); !reflect.DeepEqual(got, []string{"other", "typo"}) {
		t.Fatalf("unused %v", got)
	}
	if err := sp.CheckConsumed("frame", "text"); err == nil {
		t.Fatal("unknown params must be rejected")
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"", "  ", "rekv(frame=0.5", "rekv(frame)", "rekv(=1)",
		"rekv(frame=)", "rekv(frame=1,frame=2)",
		"(frame=1)", "a=b",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestStrParams(t *testing.T) {
	sp, err := Parse("spill(evict=LRU,pages=16)")
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.Str("evict", "fifo"); got != "lru" {
		t.Fatalf("string param %q, want lru (lower-cased)", got)
	}
	if sp.Int("pages", 0) != 16 {
		t.Fatal("numeric param alongside string param not parsed")
	}
	if got := sp.Str("absent", "def"); got != "def" {
		t.Fatalf("absent string param must default: got %q", got)
	}
	if err := sp.CheckConsumed("evict", "pages"); err != nil {
		t.Fatal(err)
	}
}

func TestFloatOnStringValueReported(t *testing.T) {
	// A non-numeric value consumed as a number is a type error, surfaced by
	// CheckConsumed so registries reject it ("rekv(frame=zero)" stays fatal).
	sp, err := Parse("rekv(frame=zero)")
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.Float("frame", 0.5); got != 0.5 {
		t.Fatalf("ill-typed param must fall back to default, got %v", got)
	}
	if err := sp.CheckConsumed("frame"); err == nil {
		t.Fatal("type mismatch must be reported by CheckConsumed")
	}
}

func TestEmptyParamList(t *testing.T) {
	for _, s := range []string{"rekv()", "rekv(  )"} {
		sp, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if sp.Name != "rekv" || len(sp.Unused()) != 0 {
			t.Fatalf("Parse(%q) = %+v", s, sp)
		}
	}
}

func TestHas(t *testing.T) {
	sp, _ := Parse("x(a=1)")
	if !sp.Has("a") || sp.Has("b") {
		t.Fatal("Has wrong")
	}
	// Has must not consume.
	if err := sp.CheckConsumed("a"); err == nil {
		t.Fatal("Has must not mark the key consumed")
	}
}

func TestCheckConsumedErrorMessages(t *testing.T) {
	// Unknown key: the error must name both the offending and the known keys
	// so CLI typos are self-diagnosing.
	sp, err := Parse("resv(frmae=0.5)")
	if err != nil {
		t.Fatal(err)
	}
	sp.Float("frame", 0.5)
	cerr := sp.CheckConsumed("frame", "text")
	if cerr == nil {
		t.Fatal("unknown key must fail CheckConsumed")
	}
	for _, want := range []string{"frmae", "frame", "text"} {
		if !strings.Contains(cerr.Error(), want) {
			t.Fatalf("error %q must mention %q", cerr, want)
		}
	}

	// Malformed number: reported with the offending literal, and takes
	// precedence over the unconsumed-parameter report.
	sp, err = Parse("rekv(frame=0x,typo=1)")
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.Float("frame", 0.25); got != 0.25 {
		t.Fatalf("malformed number must fall back to default, got %v", got)
	}
	cerr = sp.CheckConsumed("frame")
	if cerr == nil || !strings.Contains(cerr.Error(), `bad number "0x"`) {
		t.Fatalf("malformed number not reported: %v", cerr)
	}

	// Unconsumed params: every leftover key listed, sorted.
	sp, err = Parse("fifo(z=1,a=2)")
	if err != nil {
		t.Fatal(err)
	}
	cerr = sp.CheckConsumed()
	if cerr == nil || !strings.Contains(cerr.Error(), "a, z") {
		t.Fatalf("unconsumed keys not listed sorted: %v", cerr)
	}
}

func TestIntOnMalformedNumberReported(t *testing.T) {
	sp, err := Parse("spill(pages=many)")
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.Int("pages", 4); got != 4 {
		t.Fatalf("malformed int must fall back to default, got %v", got)
	}
	if err := sp.CheckConsumed("pages"); err == nil {
		t.Fatal("malformed int must be reported by CheckConsumed")
	}
}

// TestNonFiniteNumbersRejected: values strconv.ParseFloat accepts as NaN or
// ±Inf (and out-of-range literals it rounds to ±Inf) are not numbers to the
// grammar, so Float and Int fall back to the default and CheckConsumed names
// the parameter. Range checks written as comparisons let NaN through, so the
// grammar is where they stop.
func TestNonFiniteNumbersRejected(t *testing.T) {
	for _, v := range []string{"nan", "NaN", "inf", "+Inf", "-Infinity", "1e400"} {
		sp, err := Parse("resv(frame=" + v + ",pages=" + v + ")")
		if err != nil {
			t.Fatalf("%s: grammar must parse: %v", v, err)
		}
		if got := sp.Float("frame", 0.25); got != 0.25 {
			t.Fatalf("Float(%s) = %v, want the default", v, got)
		}
		if got := sp.Int("pages", 3); got != 3 {
			t.Fatalf("Int(%s) = %v, want the default", v, got)
		}
		cerr := sp.CheckConsumed("frame", "pages")
		want := fmt.Sprintf("parameter frame: bad number %q", v)
		if cerr == nil || !strings.Contains(cerr.Error(), want) {
			t.Fatalf("%s: error %v must contain %q", v, cerr, want)
		}
		if !strings.Contains(cerr.Error(), "parameter pages") {
			t.Fatalf("%s: error %v must name pages too", v, cerr)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		spec string
		ps   []Param
	}{
		{"resv", nil},
		{"diurnal(rate=0.5,amp=0.9,period=12)", []Param{P("rate", 0.5), P("amp", 0.9), P("period", 12.0)}},
		{"spill(evict=lru,pages=16)", []Param{P("evict", "lru"), P("pages", 16)}},
		{"flash(rate=0.3333333333333333,mult=8)", []Param{P("rate", 1.0/3), P("mult", 8.0)}},
	} {
		name, _, _ := strings.Cut(tc.spec, "(")
		got := Format(name, tc.ps...)
		if got != tc.spec {
			t.Fatalf("Format = %q, want %q", got, tc.spec)
		}
		sp, err := Parse(got)
		if err != nil {
			t.Fatalf("Format output %q must re-parse: %v", got, err)
		}
		for _, p := range tc.ps {
			switch v := p.Value.(type) {
			case float64:
				if sp.Float(p.Key, -1) != v {
					t.Fatalf("%s: param %s did not survive the round trip exactly", got, p.Key)
				}
			case int:
				if sp.Int(p.Key, -1) != v {
					t.Fatalf("%s: param %s did not survive the round trip", got, p.Key)
				}
			case string:
				if sp.Str(p.Key, "") != v {
					t.Fatalf("%s: param %s did not survive the round trip", got, p.Key)
				}
			}
		}
	}
}

func TestFormatRejectsUnknownValueType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Format must panic on unsupported value types")
		}
	}()
	Format("x", P("a", []int{1}))
}
