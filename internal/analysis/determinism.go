package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// parallelPkgPath is the one package allowed to spawn goroutines: every other
// package must fan out through its deterministic worker pool.
const parallelPkgPath = "vrex/internal/parallel"

// Determinism enforces the simulator's byte-identical-output invariant: no
// wall-clock reads, no global math/rand, no goroutines outside
// internal/parallel, and no map iteration whose effects depend on order
// unless the keys are sorted first (the recognized collect-then-sort idiom)
// or the site is marked //vrex:unordered.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock time, global math/rand, stray goroutines and " +
		"order-sensitive map iteration; sorted-before-use key collection is " +
		"recognized, provably order-insensitive loops pass, and intentional " +
		"sites carry //vrex:unordered",
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Body != nil {
				determinismFunc(pass, fn)
				continue
			}
			// Package-level initializers still must not read wall clocks.
			ast.Inspect(decl, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					checkNondetCall(pass, call)
				}
				return true
			})
		}
	}
	return nil
}

// determinismFunc walks one function body.
func determinismFunc(pass *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkNondetCall(pass, n)
		case *ast.GoStmt:
			if pass.Pkg.Path() != parallelPkgPath {
				pass.Reportf(n.Pos(),
					"goroutine outside internal/parallel; fan out through the deterministic worker pool (parallel.ForEach / parallel.Go)")
			}
		case *ast.RangeStmt:
			checkMapRange(pass, fn, n)
		}
		return true
	})
}

// checkNondetCall flags wall-clock reads and global math/rand draws.
func checkNondetCall(pass *Pass, call *ast.CallExpr) {
	f := calleeFunc(pass.TypesInfo, call)
	if f == nil {
		return
	}
	switch {
	case pkgFuncFrom(f, "time") && (f.Name() == "Now" || f.Name() == "Since" || f.Name() == "Until"):
		pass.Reportf(call.Pos(),
			"call to time.%s reads the wall clock; the simulator must run on simulated time only", f.Name())
	case pkgFuncFrom(f, "math/rand", "math/rand/v2"):
		pass.Reportf(call.Pos(),
			"global math/rand.%s draws from the shared unseeded source; use a seeded *mathx.RNG threaded through the call", f.Name())
	}
}

// checkMapRange classifies one range-over-map site: pass when suppressed,
// when it is the collect-keys-then-sort idiom, or when the body is provably
// order-insensitive; report otherwise.
func checkMapRange(pass *Pass, fn *ast.FuncDecl, rs *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if pass.Suppressed(rs.Pos(), "unordered") {
		return
	}
	// `for range m` uses only the iteration count — trivially insensitive.
	if rs.Key == nil && rs.Value == nil {
		return
	}
	if sortedCollectIdiom(pass, fn, rs) {
		return
	}
	if orderInsensitiveBlock(pass, rs.Body) {
		return
	}
	pass.Reportf(rs.Pos(),
		"map iteration order is nondeterministic and this loop's effects are order-sensitive; collect and sort keys first, or mark the loop //vrex:unordered")
}

// sortedCollectIdiom recognizes the canonical determinism idiom: the loop
// only collects keys/values into slices (mutating per-iteration locals on
// the way is fine), and the enclosing function later sorts one of those
// slices — sort.*, slices.Sort*, or a local sort helper (sortAsc, sortByScoreDesc).
func sortedCollectIdiom(pass *Pass, fn *ast.FuncDecl, rs *ast.RangeStmt) bool {
	locals := map[types.Object]bool{}
	for _, v := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := v.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				locals[obj] = true
			}
		}
	}
	targets := map[types.Object]bool{}
	if !collectAppendsOnly(pass, rs.Body.List, targets, locals) || len(targets) == 0 {
		return false
	}
	sorted := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || !isSortCall(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			if obj := rootObject(pass.TypesInfo, arg); obj != nil && targets[obj] {
				sorted = true
			}
		}
		return true
	})
	return sorted
}

// isSortCall matches sort.* / slices.Sort* plus local helpers whose name
// starts with "sort" (sortAsc, sortByScoreDesc — the repo's own sorters).
func isSortCall(pass *Pass, call *ast.CallExpr) bool {
	f := calleeFunc(pass.TypesInfo, call)
	if f == nil {
		return false
	}
	if pkgFuncFrom(f, "sort", "slices") {
		return true
	}
	return strings.HasPrefix(strings.ToLower(f.Name()), "sort")
}

// collectAppendsOnly reports whether stmts consist solely of self-appends
// and mutations of per-iteration locals (optionally guarded by ifs, with
// continues allowed), recording the append targets' objects.
func collectAppendsOnly(pass *Pass, stmts []ast.Stmt, targets, locals map[types.Object]bool) bool {
	for _, st := range stmts {
		switch st := st.(type) {
		case *ast.AssignStmt:
			if selfAppend(pass, st, targets) {
				continue
			}
			if st.Tok == token.DEFINE {
				for _, lhs := range st.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if obj := pass.TypesInfo.Defs[id]; obj != nil {
							locals[obj] = true
						}
					}
				}
				continue
			}
			// Plain writes are fine when they only touch per-iteration
			// locals (k.Count = n before appending k).
			ok := st.Tok == token.ASSIGN
			for _, lhs := range st.Lhs {
				if obj := baseObject(pass.TypesInfo, lhs); obj == nil || !locals[obj] {
					ok = false
				}
			}
			if !ok {
				return false
			}
		case *ast.IfStmt:
			if !collectAppendsOnly(pass, st.Body.List, targets, locals) {
				return false
			}
			if st.Else != nil {
				blk, ok := st.Else.(*ast.BlockStmt)
				if !ok || !collectAppendsOnly(pass, blk.List, targets, locals) {
					return false
				}
			}
		case *ast.BranchStmt:
			if st.Tok != token.CONTINUE {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// selfAppend matches `x = append(x, ...)` (single assign), recording x.
func selfAppend(pass *Pass, st *ast.AssignStmt, targets map[types.Object]bool) bool {
	if len(st.Lhs) != 1 || len(st.Rhs) != 1 || st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
		return false
	}
	call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || pass.TypesInfo.Uses[id] != types.Universe.Lookup("append") {
		return false
	}
	lhs := rootObject(pass.TypesInfo, st.Lhs[0])
	if lhs == nil || len(call.Args) == 0 || rootObject(pass.TypesInfo, call.Args[0]) != lhs {
		return false
	}
	targets[lhs] = true
	return true
}

// orderInsensitiveBlock reports whether every statement's effect is invariant
// under iteration-order permutation: map writes, deletes, integer
// accumulation, per-iteration locals, and recursively insensitive control
// flow. Conservative — anything unrecognized is order-sensitive.
func orderInsensitiveBlock(pass *Pass, blk *ast.BlockStmt) bool {
	for _, st := range blk.List {
		if !orderInsensitiveStmt(pass, st) {
			return false
		}
	}
	return true
}

func orderInsensitiveStmt(pass *Pass, st ast.Stmt) bool {
	switch st := st.(type) {
	case *ast.AssignStmt:
		if st.Tok == token.DEFINE {
			return true // per-iteration locals carry no state across iterations
		}
		switch st.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN,
			token.XOR_ASSIGN, token.MUL_ASSIGN:
			// Commutative only over integers: float accumulation is
			// order-sensitive in the last bits.
			t := pass.TypesInfo.TypeOf(st.Lhs[0])
			b, ok := t.Underlying().(*types.Basic)
			return ok && b.Info()&types.IsInteger != 0
		case token.ASSIGN:
			// Plain assignment is fine only when every target is a map entry
			// keyed by loop state (m[k] = v): each key is written once.
			for _, lhs := range st.Lhs {
				ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
				if !ok {
					return false
				}
				if _, ok := pass.TypesInfo.TypeOf(ix.X).Underlying().(*types.Map); !ok {
					return false
				}
			}
			return true
		}
		return false
	case *ast.IncDecStmt:
		t := pass.TypesInfo.TypeOf(st.X)
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsInteger != 0
	case *ast.ExprStmt:
		// Only delete(m, k) — other calls may have order-dependent effects.
		call, ok := ast.Unparen(st.X).(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && pass.TypesInfo.Uses[id] == types.Universe.Lookup("delete")
	case *ast.IfStmt:
		if st.Init != nil && !orderInsensitiveStmt(pass, st.Init) {
			return false
		}
		if !orderInsensitiveBlock(pass, st.Body) {
			return false
		}
		if st.Else != nil {
			if blk, ok := st.Else.(*ast.BlockStmt); ok {
				return orderInsensitiveBlock(pass, blk)
			}
			els, ok := st.Else.(*ast.IfStmt)
			return ok && orderInsensitiveStmt(pass, els)
		}
		return true
	case *ast.BlockStmt:
		return orderInsensitiveBlock(pass, st)
	case *ast.RangeStmt, *ast.ForStmt:
		var body *ast.BlockStmt
		if r, ok := st.(*ast.RangeStmt); ok {
			body = r.Body
		} else {
			body = st.(*ast.ForStmt).Body
		}
		return orderInsensitiveBlock(pass, body)
	case *ast.BranchStmt:
		return st.Tok == token.CONTINUE
	case *ast.DeclStmt:
		return true
	}
	return false
}

// baseObject unwraps selectors, indexes and slices down to the base
// identifier and resolves it (k.Count -> k; s[i].f -> s).
func baseObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if o := info.Uses[x]; o != nil {
				return o
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// rootObject resolves the base identifier of an lvalue-ish expression
// (x, x[i], x.f, x[:n]) to its object.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if o := info.Uses[x]; o != nil {
				return o
			}
			return info.Defs[x]
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.SelectorExpr:
			if o := info.Uses[x.Sel]; o != nil {
				return o
			}
			return nil
		default:
			return nil
		}
	}
}
