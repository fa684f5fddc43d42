package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DetOrder flags constructs whose result depends on map iteration order or
// on ambient nondeterminism (wall clock, math/rand) inside the deterministic
// build/query packages. Those packages promise bitwise-identical output for
// any worker count, so the only tolerated map ranges are
// the two shapes that are order-independent by construction:
//
//   - collect-and-sort: the loop body only accumulates into slices that are
//     sorted later in the same function (sort.* / slices.Sort*);
//   - commutative bodies: every statement is an order-independent update
//     (+=-style accumulation, counters, map/element writes, deletes).
//
// Anything else needs an explicit //memes:detorder <reason> annotation on
// the range statement. Wall-clock and math/rand calls need a function-level
// //memes:nondet <reason> annotation, reserved for timing stats that never
// influence output.
var DetOrder = &Analyzer{
	Name: "detorder",
	Doc:  "flags map-iteration-order and clock/rand dependence in deterministic packages",
	Run:  runDetOrder,
}

func runDetOrder(pass *Pass) error {
	if !inDeterministicScope(pass.Path) {
		return nil
	}
	dirs := indexDirectives(pass.Fset, pass.Files)
	enclosingFuncs(pass.Files, func(decl *ast.FuncDecl) {
		nondet := funcHasDirective(decl, "nondet")
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				checkMapRange(pass, dirs, decl, n)
			case *ast.CallExpr:
				checkNondetSource(pass, n, nondet)
			}
			return true
		})
	})
	return nil
}

// checkMapRange reports a range over a map (or sync.Map.Range) unless it is
// annotated or provably order-independent.
func checkMapRange(pass *Pass, dirs *directiveIndex, decl *ast.FuncDecl, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if !isMapType(t) {
		return
	}
	if dirs.at(rng.Pos(), "detorder") {
		return
	}
	if orderIndependentBody(pass, decl, rng) {
		return
	}
	pass.Reportf(rng.Pos(), "range over map %s in deterministic package %s: iteration order may leak into output; collect keys and sort, make the body commutative, or annotate with //memes:detorder <reason>",
		types.ExprString(rng.X), pass.Path)
}

// orderIndependentBody reports whether every statement of the range body is
// an order-independent update, treating slice appends as order-independent
// only when the slice is sorted later in the same function.
func orderIndependentBody(pass *Pass, decl *ast.FuncDecl, rng *ast.RangeStmt) bool {
	ok := true
	var checkStmt func(s ast.Stmt)
	checkStmt = func(s ast.Stmt) {
		if !ok {
			return
		}
		switch s := s.(type) {
		case *ast.IncDecStmt:
			// counters: x++ / x--
		case *ast.AssignStmt:
			if !orderIndependentAssign(pass, decl, rng, s) {
				ok = false
			}
		case *ast.ExprStmt:
			// Per-element normalisation (sort.Slice(elem.IDs, ...)) and
			// deletes are order-independent; any other call could observe
			// iteration order.
			call, isCall := s.X.(*ast.CallExpr)
			if !isCall || !(isSortCall(pass, call) || isBuiltin(pass, call, "delete")) {
				ok = false
			}
		case *ast.IfStmt:
			if s.Init != nil {
				checkStmt(s.Init)
			}
			checkStmt(s.Body)
			if s.Else != nil {
				checkStmt(s.Else)
			}
		case *ast.BlockStmt:
			for _, inner := range s.List {
				checkStmt(inner)
			}
		case *ast.BranchStmt:
			// continue/break cannot introduce order dependence by themselves.
			if s.Tok != token.CONTINUE && s.Tok != token.BREAK {
				ok = false
			}
		case *ast.DeclStmt:
			// Local declarations only shadow; their initialisers are simple
			// expressions evaluated per element.
		default:
			ok = false
		}
	}
	checkStmt(rng.Body)
	return ok
}

// orderIndependentAssign vets one assignment inside a map-range body.
func orderIndependentAssign(pass *Pass, decl *ast.FuncDecl, rng *ast.RangeStmt, s *ast.AssignStmt) bool {
	// Accumulations commute: x += v, x |= v, ...
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN,
		token.XOR_ASSIGN, token.MUL_ASSIGN:
		return true
	case token.ASSIGN, token.DEFINE:
	default:
		return false
	}
	for i, lhs := range s.Lhs {
		if i < len(s.Rhs) {
			// v = append(v, ...) is order-independent iff v is sorted after
			// the loop.
			if call, isCall := ast.Unparen(s.Rhs[i]).(*ast.CallExpr); isCall && isBuiltin(pass, call, "append") {
				if id, isIdent := ast.Unparen(lhs).(*ast.Ident); isIdent && sortedAfter(pass, decl, rng, id) {
					continue
				}
				return false
			}
		}
		switch lhs := ast.Unparen(lhs).(type) {
		case *ast.IndexExpr:
			// Writes to distinct keys/indexes commute; the final state is
			// order-independent for the overwrite-with-same-value and
			// distinct-key cases that survive review here.
		case *ast.Ident:
			if lhs.Name == "_" {
				continue
			}
			// Plain redefinition of a per-iteration local is fine only for
			// := (fresh variable each iteration).
			if s.Tok != token.DEFINE {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// sortedAfter reports whether the identifier's object is passed to a
// sort.*/slices.Sort* call located after the range statement within the
// same function declaration.
func sortedAfter(pass *Pass, decl *ast.FuncDecl, rng *ast.RangeStmt, id *ast.Ident) bool {
	obj := pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, isCall := n.(*ast.CallExpr)
		if !isCall || call.Pos() < rng.End() || !isSortCall(pass, call) || len(call.Args) == 0 {
			return true
		}
		if argID, isIdent := ast.Unparen(call.Args[0]).(*ast.Ident); isIdent && pass.TypesInfo.ObjectOf(argID) == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

// isSortCall reports whether the call invokes the sort or slices package.
func isSortCall(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass.TypesInfo, call)
	p := funcPkgPath(fn)
	return p == "sort" || p == "slices"
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(pass *Pass, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltinObj := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltinObj
}

// checkNondetSource reports calls that read ambient nondeterminism: the
// wall clock (time.Now, time.Since) and math/rand, plus sync.Map.Range
// (which has the same unordered-iteration hazard as a map range).
func checkNondetSource(pass *Pass, call *ast.CallExpr, nondetOK bool) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	switch funcPkgPath(fn) {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" {
			if !nondetOK {
				pass.Reportf(call.Pos(), "time.%s in deterministic package %s: wall-clock reads may leak into output; route timing through a helper annotated //memes:nondet <reason>", fn.Name(), pass.Path)
			}
		}
	case "math/rand", "math/rand/v2":
		if !nondetOK {
			pass.Reportf(call.Pos(), "%s.%s in deterministic package %s: ambient randomness breaks reproducible output; use a seeded source threaded from the config or annotate the function //memes:nondet <reason>", funcPkgPath(fn), fn.Name(), pass.Path)
		}
	case "sync":
		if fn.Name() == "Range" {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if named, ok := recv.Type().(*types.Pointer); ok {
					if nt, ok := named.Elem().(*types.Named); ok && nt.Obj().Name() == "Map" {
						pass.Reportf(call.Pos(), "sync.Map.Range in deterministic package %s: iteration order may leak into output", pass.Path)
					}
				}
			}
		}
	}
}
