// Package analysistest runs vrex analyzers over committed source corpora and
// checks their diagnostics against expectations written in the sources as
//
//	expr // want "substring-regexp"
//
// mirroring golang.org/x/tools/go/analysis/analysistest (which the module
// cannot depend on) closely enough that corpora read the same way. A want
// comment may carry several quoted or backquoted patterns when one line is
// expected to produce several diagnostics. Every diagnostic must match an
// unconsumed want on its line, and every want must be consumed — both
// directions fail the test with positions.
package analysistest

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"vrex/internal/analysis"
)

// wantRE captures the expectation list after a want marker.
var wantRE = regexp.MustCompile(`//\s*want\s+(.+)$`)

// patRE captures one quoted or backquoted pattern from the expectation list.
var patRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// want is one expectation: a pattern anchored to a file line.
type want struct {
	file    string
	line    int
	raw     string
	re      *regexp.Regexp
	matched bool
}

// Run loads dir as a single package and applies the analyzers, diffing their
// diagnostics against the corpus's want comments.
//
//vrex:testonly the harness the analyzer corpus tests run on
func Run(t *testing.T, dir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	loader := analysis.NewLoader(dir)
	pkg, err := loader.LoadDir(dir, "vrexvet.test/"+filepath.Base(dir))
	if err != nil {
		t.Fatalf("loading corpus %s: %v", dir, err)
	}
	wants := collectWants(t, dir)

	diags, err := analysis.RunAnalyzers(pkg, analyzers)
	if err != nil {
		t.Fatalf("running analyzers over %s: %v", dir, err)
	}
	for _, d := range diags {
		pos := loader.Fset.Position(d.Pos)
		if w := claim(wants, filepath.Base(pos.Filename), pos.Line, d.Message); w == nil {
			t.Errorf("%s: unexpected diagnostic (%s): %s", pos, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %s, got none", w.file, w.line, w.raw)
		}
	}
}

// claim finds and consumes the first unmatched want on (file, line) whose
// pattern matches message.
func claim(wants []*want, file string, line int, message string) *want {
	for _, w := range wants {
		if w.matched || w.file != file || w.line != line {
			continue
		}
		if w.re.MatchString(message) {
			w.matched = true
			return w
		}
	}
	return nil
}

// collectWants scans every non-test .go file in dir for want comments.
func collectWants(t *testing.T, dir string) []*want {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus dir: %v", err)
	}
	var wants []*want
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || filepath.Ext(name) != ".go" || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("reading corpus file: %v", err)
		}
		for i, lineText := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(lineText)
			if m == nil {
				continue
			}
			pats := patRE.FindAllString(m[1], -1)
			if len(pats) == 0 {
				t.Fatalf("%s:%d: want comment with no quoted pattern", name, i+1)
			}
			for _, p := range pats {
				text := p[1 : len(p)-1]
				if p[0] == '"' {
					if text, err = strconv.Unquote(p); err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", name, i+1, p, err)
					}
				}
				re, err := regexp.Compile(text)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %s: %v", name, i+1, p, err)
				}
				wants = append(wants, &want{file: name, line: i + 1, raw: p, re: re})
			}
		}
	}
	return wants
}
