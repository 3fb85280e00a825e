package analysis_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"vrex/internal/analysis"
)

// TestNoDeadExports fails on every exported identifier declared in a non-test
// file under internal/ that no non-test file of the module or of perfbench/
// uses. Candidates are package-level funcs, types, vars and consts, and the
// exported methods of named types; struct fields are out of scope. A method
// is exempt when its type satisfies an interface that has it and that is
// declared in the program, in a package the program imports, or is error:
// such calls name the interface's method, not this one (heap.Interface,
// fmt.Stringer). A //vrex:testonly <reason> doc comment keeps an identifier
// only tests use, such as a reference implementation or a harness; on a type
// it covers the methods too.
//
// This is a test rather than a vrex-vet analyzer because an analyzer sees one
// package at a time, and the uses that matter live in other packages and in
// perfbench, a module of its own that needs its own Loader.
func TestNoDeadExports(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*analysis.Package
	for _, dir := range []string{root, filepath.Join(root, "perfbench")} {
		loaded, err := analysis.NewLoader(dir).Load("./...")
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, loaded...)
	}

	// Packages see each other through export data, so objects are matched
	// by key, not by identity.
	used := map[string]bool{}
	for _, pkg := range pkgs {
		receivers := map[*ast.Ident]bool{} // a method's receiver is no use of its type
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							receivers[id] = true
						}
						return true
					})
				}
			}
		}
		for id, obj := range pkg.Info.Uses {
			if !receivers[id] {
				used[objKey(obj)] = true
			}
		}
		markInterfaceMethods(pkg.Types, used)
	}

	var dead []string
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path, "vrex/internal/") {
			continue
		}
		waived := map[string]bool{}
		for _, c := range exported(pkg, waived) {
			// A method's key extends its type's key by one ".Name".
			owner := c.key[:strings.LastIndexByte(c.key, '.')]
			if !used[c.key] && !waived[c.key] && !waived[owner] {
				pos := pkg.Fset.Position(c.pos)
				rel, _ := filepath.Rel(root, pos.Filename)
				dead = append(dead, fmt.Sprintf("%s:%d: %s has no non-test use; delete it or "+
					"give it a //vrex:testonly <reason> doc comment", rel, pos.Line, c.key))
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Error(d)
	}
}

// candidate is one exported declaration the check accounts for.
type candidate struct {
	key string
	pos token.Pos
}

// exported lists pkg's exported package-level declarations and the exported
// methods of its named types, and marks in waived the key of every
// declaration whose doc comment carries a //vrex:testonly reason.
func exported(pkg *analysis.Package, waived map[string]bool) []candidate {
	var out []candidate
	add := func(id *ast.Ident, docs ...*ast.CommentGroup) {
		key := objKey(pkg.Info.Defs[id])
		for _, doc := range docs {
			if testOnly(doc) {
				waived[key] = true
			}
		}
		if id.IsExported() {
			out = append(out, candidate{key, id.Pos()})
		}
	}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				add(d.Name, d.Doc)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, s.Doc, d.Doc)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n, s.Doc, d.Doc)
						}
					}
				}
			}
		}
	}
	return out
}

// testOnly reports whether doc carries a //vrex:testonly directive followed
// by a reason.
func testOnly(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if reason, ok := strings.CutPrefix(c.Text, "//vrex:testonly"); ok && strings.TrimSpace(reason) != "" {
			return true
		}
	}
	return false
}

// objKey names a package-level object as "path.Name" and a method as
// "path.Type.Name"; it returns "" for anything else (locals, fields,
// universe objects).
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Signature().Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
			}
			return ""
		}
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// markInterfaceMethods marks as used every method through which a named type
// under internal/, declared in pkg or a package it imports, satisfies an
// interface declared in pkg, in a package it imports, or error.
func markInterfaceMethods(pkg *types.Package, used map[string]bool) {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	var named []*types.Named
	for _, p := range append([]*types.Package{pkg}, pkg.Imports()...) {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := n.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			} else if strings.HasPrefix(p.Path(), "vrex/internal/") {
				named = append(named, n)
			}
		}
	}
	for _, n := range named {
		ptr := types.NewPointer(n)
		for _, it := range ifaces {
			if it.NumMethods() == 0 || !types.Implements(ptr, it) {
				continue
			}
			for i := range it.NumMethods() {
				// The method may be promoted from an embedded type.
				m := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
				used[objKey(obj)] = true
			}
		}
	}
}
