package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Exhaustive supersedes the runtime numEventKinds-sentinel tests: every
// switch over a *Kind enum (serve.EventKind, hwsim.StageKind,
// hwsim.PredKind, ...) must cover all of the enum's constants or carry an
// explicit default clause. Sentinel bounds constants (unexported, named
// num<...>) are not required.
var Exhaustive = &Analyzer{
	Name: "exhaustive",
	Doc: "switches over named *Kind enum types must either cover every " +
		"declared constant of the type or have an explicit default clause; " +
		"unexported num* sentinels are exempt from coverage",
	Run: runExhaustive,
}

func runExhaustive(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			checkSwitchExhaustive(pass, sw)
			return true
		})
	}
	return nil
}

// kindEnum returns the named *Kind enum type of e, or nil when e is not one.
// A kind enum is a defined integer type whose name ends in "Kind" with at
// least two declared constants in its package.
func kindEnum(pass *Pass, e ast.Expr) (*types.Named, []*types.Const) {
	t := pass.TypesInfo.TypeOf(e)
	named, ok := t.(*types.Named)
	if !ok || !strings.HasSuffix(named.Obj().Name(), "Kind") {
		return nil, nil
	}
	b, ok := named.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsInteger == 0 {
		return nil, nil
	}
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return nil, nil
	}
	var consts []*types.Const
	for _, name := range pkg.Scope().Names() {
		c, ok := pkg.Scope().Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		if !c.Exported() && strings.HasPrefix(c.Name(), "num") {
			continue // bounds sentinel, not a real kind
		}
		consts = append(consts, c)
	}
	if len(consts) < 2 {
		return nil, nil
	}
	return named, consts
}

func checkSwitchExhaustive(pass *Pass, sw *ast.SwitchStmt) {
	named, consts := kindEnum(pass, sw.Tag)
	if named == nil {
		return
	}
	covered := map[types.Object]bool{}
	for _, clause := range sw.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return // explicit default: the author opted out of exhaustiveness
		}
		for _, e := range cc.List {
			if obj := rootObject(pass.TypesInfo, e); obj != nil {
				covered[obj] = true
			}
		}
	}
	var missing []string
	for _, c := range consts {
		if !covered[c] {
			missing = append(missing, c.Name())
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	pass.Reportf(sw.Pos(),
		"switch over %s.%s is not exhaustive: missing %s; add the cases or an explicit default",
		named.Obj().Pkg().Name(), named.Obj().Name(), strings.Join(missing, ", "))
}
