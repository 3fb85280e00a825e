// Package analysis is vrex's static-analysis plane: a small, dependency-free
// reimplementation of the golang.org/x/tools/go/analysis surface (the
// toolchain image has no module proxy, so x/tools is unavailable) plus the
// five vrex analyzers that enforce the simulator's invariants at review time:
//
//	determinism — no wall-clock time, no global math/rand, no goroutines
//	              outside internal/parallel, no unsorted map iteration
//	              feeding output or aggregation
//	noalloc     — functions annotated //vrex:noalloc stay free of
//	              alloc-prone constructs (closures, fmt, literals, boxing)
//	policyreg   — policyspec factories call CheckConsumed; registries are
//	              listable (reachable from -list-policies)
//	exhaustive  — switches over *Kind enums cover every constant or carry
//	              an explicit default
//	floatdet    — no float ==/!=, no float map keys, no unguarded division
//	              results flowing into formatting
//
// Analyzers report file:line diagnostics; cmd/vrex-vet runs them over the
// module and `make vet` wires them into CI. Suppression directives (one per
// diagnostic class, always a trailing or preceding line comment):
//
//	//vrex:unordered     map iteration is provably order-insensitive
//	//vrex:alloc-ok      waive one alloc site inside a //vrex:noalloc func
//	//vrex:float-eq      exact float comparison is intentional
//	//vrex:nonfinite-ok  the formatted value is proven finite
//
// One module-wide check is a test, not an analyzer, because it needs every
// package's uses at once: TestNoDeadExports fails on an exported identifier
// under internal/ that no non-test code of the module or of perfbench/ uses.
// A doc-comment directive keeps one that only tests need:
//
//	//vrex:testonly <reason>  a test reference or harness; on a type, it
//	                          covers the methods too
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named static check, mirroring the x/tools analysis.Analyzer
// shape so the checks read like upstream go/analysis code.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	Name string
	// Doc is the one-paragraph help text shown by vrex-vet -list.
	Doc string
	// Run executes the analyzer over one package pass.
	Run func(*Pass) error
}

// Pass holds one analyzer's view of one type-checked package.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps positions for every file in the pass.
	Fset *token.FileSet
	// Files are the package's parsed syntax trees (comments included).
	Files []*ast.File
	// Pkg is the type-checked package (path = import path).
	Pkg *types.Package
	// TypesInfo records types and object resolution for Files.
	TypesInfo *types.Info
	// report collects diagnostics (set by the driver).
	report func(Diagnostic)
	// directives maps file -> line -> the //vrex: directive text on it.
	directives map[*token.File]map[int]string
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// Suppressed reports whether the line containing pos (or the line above it)
// carries the given //vrex:<directive> comment. Directives must name their
// diagnostic class precisely — a stray directive never silences a different
// analyzer's finding.
func (p *Pass) Suppressed(pos token.Pos, directive string) bool {
	tf := p.Fset.File(pos)
	if tf == nil {
		return false
	}
	lines := p.directives[tf]
	if lines == nil {
		return false
	}
	ln := tf.Line(pos)
	for _, l := range [2]int{ln, ln - 1} {
		if d, ok := lines[l]; ok && directiveMatches(d, directive) {
			return true
		}
	}
	return false
}

// directiveMatches reports whether comment text d contains //vrex:<want>
// as a whole word ("//vrex:unordered" matches "unordered", not "unorder").
func directiveMatches(d, want string) bool {
	for _, f := range strings.Fields(d) {
		f = strings.TrimPrefix(f, "//")
		if f == "vrex:"+want {
			return true
		}
	}
	return false
}

// buildDirectives indexes every //vrex: comment by file and line so
// Suppressed is O(1) per query.
func (p *Pass) buildDirectives() {
	p.directives = map[*token.File]map[int]string{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.Contains(c.Text, "vrex:") {
					continue
				}
				tf := p.Fset.File(c.Pos())
				if tf == nil {
					continue
				}
				lines := p.directives[tf]
				if lines == nil {
					lines = map[int]string{}
					p.directives[tf] = lines
				}
				ln := tf.Line(c.Pos())
				lines[ln] = lines[ln] + " " + c.Text
			}
		}
	}
}

// FuncAnnotated reports whether decl carries the //vrex:<name> annotation in
// its doc comment or on any comment line directly above its position.
func (p *Pass) FuncAnnotated(decl *ast.FuncDecl, name string) bool {
	if decl.Doc != nil {
		for _, c := range decl.Doc.List {
			if directiveMatches(c.Text, name) {
				return true
			}
		}
	}
	// A detached comment line right above the func (no doc association).
	return p.Suppressed(decl.Pos(), name)
}

// RunAnalyzers executes every analyzer over the package and returns the
// combined diagnostics sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			report:    func(d Diagnostic) { out = append(out, d) },
		}
		pass.buildDirectives()
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// typeIsFloat reports whether t's underlying type is a floating-point or
// complex kind (shared by determinism and floatdet).
func typeIsFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// calleeFunc resolves a call expression's static callee, or nil for dynamic
// calls (function-typed variables, method values bound at runtime).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fn].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fn.Sel].(*types.Func)
		return f
	}
	return nil
}

// pkgFuncFrom reports whether f is a package-level function (not a method)
// belonging to one of the given import paths.
func pkgFuncFrom(f *types.Func, paths ...string) bool {
	if f == nil || f.Pkg() == nil {
		return false
	}
	if sig, ok := f.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	for _, p := range paths {
		if f.Pkg().Path() == p {
			return true
		}
	}
	return false
}
