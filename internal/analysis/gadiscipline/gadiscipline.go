// Package gadiscipline enforces the resource discipline of the ga
// runtime. The paper's capacity results (Section 5: every schedule fits
// in S >= n^2 + n + 1 words of process-local memory) are statements
// about high-water marks, and the runtime measures those with a ledger:
// an AllocLocal that never reaches FreeLocal inflates the measured peak
// and silently invalidates the comparison against the analytical bound.
// The same holds for distributed arrays and the aggregate-memory ledger.
//
// Checks, in the spirit of x/tools' lostcancel:
//
//  1. Every call producing a ga.Buffer (AllocLocal, MustAllocLocal, and
//     any wrapper returning ga.Buffer) must be released with FreeLocal
//     on every path out of the function: before the function body ends
//     and before every lexically later return. Deferred frees and
//     buffers returned to the caller are fine. Discarding the result
//     outright is always an error.
//  2. Every distributed-array handle obtained from Runtime.CreateTiled
//     or CreateTiledSparse must reach Runtime.DestroyTiled in the same
//     function unless the handle escapes
//     (returned, stored into a slice, map, struct field, or variable
//     alias, or placed in a composite literal).
//  3. Collective operations (Create*, Destroy*, Parallel) must not be
//     called inside a Parallel region body: they are documented as
//     sequential, between-region operations, and nesting Parallel
//     deadlocks the clock barrier.
//  4. A ga.Buffer allocated inside a Parallel region must not be
//     assigned to a variable declared outside the region: per-process
//     local memory must not outlive its process.
//
// Path sensitivity is lexical: a free "covers" an exit when it appears
// between the allocation and that exit in source order. For the
// straight-line schedule code this runtime hosts, that approximation is
// exact in practice and keeps the checker dependency-free.
package gadiscipline

import (
	"go/ast"
	"go/token"
	"go/types"

	"fourindex/internal/analysis"
)

// Analyzer is the gadiscipline analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "gadiscipline",
	Doc:  "ga.Buffer and distributed-array handles must be released on all paths; collectives must stay out of Parallel regions",
	Run:  run,
}

var createMethods = map[string]bool{
	"CreateTiled":       true,
	"CreateTiledSparse": true,
}

var destroyMethods = map[string]bool{
	"DestroyTiled": true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, scope := range analysis.FuncScopes(file) {
			checkBuffers(pass, scope)
			checkArrays(pass, scope)
		}
		checkParallelRegions(pass, file)
	}
	return nil
}

// returnsBuffer reports whether call produces a ga.Buffer as its first
// result. This covers Proc.AllocLocal, Proc.MustAllocLocal, and any
// project-local wrapper around them.
func returnsBuffer(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	t := tv.Type
	if tuple, isTuple := t.(*types.Tuple); isTuple {
		if tuple.Len() == 0 {
			return false
		}
		t = tuple.At(0).Type()
	}
	return analysis.NamedTypeIs(t, "ga", "Buffer")
}

// checkBuffers enforces check 1 for one function scope.
func checkBuffers(pass *analysis.Pass, scope analysis.FuncScope) {
	type allocSite struct {
		call *ast.CallExpr
		obj  types.Object // bound variable, nil if unbound
	}
	var allocs []allocSite

	scope.InspectOwn(func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			if len(stmt.Rhs) == 1 {
				if call, ok := ast.Unparen(stmt.Rhs[0]).(*ast.CallExpr); ok && returnsBuffer(pass.TypesInfo, call) {
					if obj := lhsObject(pass.TypesInfo, stmt.Lhs[0]); obj != nil {
						allocs = append(allocs, allocSite{call: call, obj: obj})
					} else {
						pass.Reportf(call.Pos(), "result of %s (a ga.Buffer) is discarded; the local-memory ledger can never be balanced", callName(pass.TypesInfo, call))
					}
					return true
				}
			}
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(stmt.X).(*ast.CallExpr); ok && returnsBuffer(pass.TypesInfo, call) {
				pass.Reportf(call.Pos(), "result of %s (a ga.Buffer) is discarded; the local-memory ledger can never be balanced", callName(pass.TypesInfo, call))
				return true
			}
		case *ast.ValueSpec:
			if len(stmt.Values) == 1 {
				if call, ok := ast.Unparen(stmt.Values[0]).(*ast.CallExpr); ok && returnsBuffer(pass.TypesInfo, call) {
					if obj := pass.TypesInfo.Defs[stmt.Names[0]]; obj != nil && stmt.Names[0].Name != "_" {
						allocs = append(allocs, allocSite{call: call, obj: obj})
					} else {
						pass.Reportf(call.Pos(), "result of %s (a ga.Buffer) is discarded; the local-memory ledger can never be balanced", callName(pass.TypesInfo, call))
					}
					return true
				}
			}
		case *ast.CallExpr:
			// A buffer-producing call nested in a larger expression:
			// fine inside a return (ownership transfers to the
			// caller), unreleasable anywhere else.
			if returnsBuffer(pass.TypesInfo, stmt) && !isBound(pass.TypesInfo, scope, stmt) {
				if !enclosedByReturn(scope, stmt) {
					pass.Reportf(stmt.Pos(), "ga.Buffer from %s is not bound to a variable and can never be released", callName(pass.TypesInfo, stmt))
				}
			}
		}
		return true
	})

	for _, a := range allocs {
		checkAllocReleased(pass, scope, a.call, a.obj)
	}
}

// checkAllocReleased verifies one bound allocation against every exit.
func checkAllocReleased(pass *analysis.Pass, scope analysis.FuncScope, call *ast.CallExpr, obj types.Object) {
	allocPos := call.Pos()
	if escapesViaReturn(pass.TypesInfo, scope, obj) {
		return
	}
	var frees []token.Pos
	deferred := false
	ast.Inspect(scope.Body, func(n ast.Node) bool {
		if def, ok := n.(*ast.DeferStmt); ok {
			if isFreeOf(pass.TypesInfo, def.Call, obj) && def.Pos() > allocPos {
				deferred = true
			}
			return true
		}
		if c, ok := n.(*ast.CallExpr); ok && isFreeOf(pass.TypesInfo, c, obj) {
			frees = append(frees, c.Pos())
		}
		return true
	})
	if deferred {
		return
	}
	freedBetween := func(lo, hi token.Pos) bool {
		for _, f := range frees {
			if f > lo && f < hi {
				return true
			}
		}
		return false
	}
	if !freedBetween(allocPos, scope.Body.End()+1) {
		pass.Reportf(allocPos, "ga.Buffer %q is never released with FreeLocal in this function", obj.Name())
		return
	}
	for _, ret := range ownReturns(scope) {
		if ret.Pos() > allocPos && !freedBetween(allocPos, ret.Pos()) {
			pass.Reportf(allocPos, "ga.Buffer %q is not released with FreeLocal before the return on line %d",
				obj.Name(), pass.Fset.Position(ret.Pos()).Line)
			return
		}
	}
}

// checkArrays enforces check 2 for one function scope.
func checkArrays(pass *analysis.Pass, scope analysis.FuncScope) {
	scope.InspectOwn(func(n ast.Node) bool {
		stmt, ok := n.(*ast.AssignStmt)
		if !ok {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, isCall := ast.Unparen(s.X).(*ast.CallExpr); isCall && isCreateCall(pass.TypesInfo, call) {
					pass.Reportf(call.Pos(), "distributed-array handle from %s is discarded; the array can never be destroyed", callName(pass.TypesInfo, call))
				}
			}
			return true
		}
		if len(stmt.Rhs) != 1 {
			return true
		}
		call, isCall := ast.Unparen(stmt.Rhs[0]).(*ast.CallExpr)
		if !isCall || !isCreateCall(pass.TypesInfo, call) {
			return true
		}
		obj := lhsObject(pass.TypesInfo, stmt.Lhs[0])
		if obj == nil {
			pass.Reportf(call.Pos(), "distributed-array handle from %s is discarded; the array can never be destroyed", callName(pass.TypesInfo, call))
			return true
		}
		if !handleEscapes(pass.TypesInfo, scope, obj) && !handleDestroyed(pass.TypesInfo, scope, obj, call.Pos()) {
			pass.Reportf(call.Pos(), "distributed array %q is neither destroyed in this function nor stored or returned; its aggregate memory stays charged", obj.Name())
		}
		return true
	})
}

// checkParallelRegions enforces checks 3 and 4 across a file.
func checkParallelRegions(pass *analysis.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !analysis.IsMethodCall(pass.TypesInfo, call, "ga", "Runtime", "Parallel") || len(call.Args) != 1 {
			return true
		}
		body, ok := call.Args[0].(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(body.Body, func(m ast.Node) bool {
			inner, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := analysis.CalleeFunc(pass.TypesInfo, inner); fn != nil {
				if sig, okSig := fn.Type().(*types.Signature); okSig && sig.Recv() != nil && analysis.NamedTypeIs(sig.Recv().Type(), "ga", "Runtime") {
					if createMethods[fn.Name()] || destroyMethods[fn.Name()] || fn.Name() == "Parallel" {
						pass.Reportf(inner.Pos(), "collective ga.Runtime.%s called inside a Parallel region; collectives are sequential between-region operations", fn.Name())
					}
				}
			}
			return true
		})
		// Check 4: buffers allocated in the region must not be bound to
		// variables declared outside it.
		ast.Inspect(body.Body, func(m ast.Node) bool {
			as, ok := m.(*ast.AssignStmt)
			if !ok || as.Tok != token.ASSIGN || len(as.Rhs) != 1 {
				return true
			}
			rhs, isCall := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if !isCall || !returnsBuffer(pass.TypesInfo, rhs) {
				return true
			}
			id, isIdent := ast.Unparen(as.Lhs[0]).(*ast.Ident)
			if !isIdent {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj != nil && (obj.Pos() < body.Pos() || obj.Pos() > body.End()) {
				pass.Reportf(as.Pos(), "ga.Buffer assigned to %q, declared outside the Parallel region; process-local memory must not outlive its process", id.Name)
			}
			return true
		})
		return true
	})
}

// --- helpers ---

// lhsObject returns the variable object a define/assign binds, or nil
// for blank or non-ident targets.
func lhsObject(info *types.Info, lhs ast.Expr) types.Object {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// isBound reports whether call is the sole RHS of a binding handled by
// the assignment cases above.
func isBound(info *types.Info, scope analysis.FuncScope, call *ast.CallExpr) bool {
	bound := false
	scope.InspectOwn(func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			if len(stmt.Rhs) == 1 && ast.Unparen(stmt.Rhs[0]) == ast.Expr(call) {
				bound = true
			}
		case *ast.ValueSpec:
			if len(stmt.Values) == 1 && ast.Unparen(stmt.Values[0]) == ast.Expr(call) {
				bound = true
			}
		case *ast.ExprStmt:
			if ast.Unparen(stmt.X) == ast.Expr(call) {
				bound = true // reported as discarded, not as unbound
			}
		}
		return true
	})
	return bound
}

// ownReturns lists this scope's own return statements.
func ownReturns(scope analysis.FuncScope) []*ast.ReturnStmt {
	var out []*ast.ReturnStmt
	scope.InspectOwn(func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok {
			out = append(out, r)
		}
		return true
	})
	return out
}

// enclosedByReturn reports whether expr sits inside one of the scope's
// own return statements.
func enclosedByReturn(scope analysis.FuncScope, expr ast.Expr) bool {
	enclosed := false
	for _, r := range ownReturns(scope) {
		if r.Pos() <= expr.Pos() && expr.End() <= r.End() {
			enclosed = true
		}
	}
	return enclosed
}

// escapesViaReturn reports whether obj is used in any return result in
// the scope subtree (ownership transferred to the caller).
func escapesViaReturn(info *types.Info, scope analysis.FuncScope, obj types.Object) bool {
	escapes := false
	for _, r := range ownReturns(scope) {
		for _, res := range r.Results {
			ast.Inspect(res, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
					escapes = true
				}
				return true
			})
		}
	}
	return escapes
}

// isFreeOf reports whether call is Proc.FreeLocal(obj).
func isFreeOf(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
	if !analysis.IsMethodCall(info, call, "ga", "Proc", "FreeLocal") || len(call.Args) != 1 {
		return false
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && info.Uses[id] == obj
}

// isCreateCall reports whether call is one of the Runtime array
// constructors.
func isCreateCall(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || !createMethods[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && analysis.NamedTypeIs(sig.Recv().Type(), "ga", "Runtime")
}

// handleDestroyed reports whether obj reaches a Destroy/DestroyTiled
// call after pos anywhere in the scope subtree.
func handleDestroyed(info *types.Info, scope analysis.FuncScope, obj types.Object, pos token.Pos) bool {
	destroyed := false
	ast.Inspect(scope.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || len(call.Args) != 1 {
			return true
		}
		fn := analysis.CalleeFunc(info, call)
		if fn == nil || !destroyMethods[fn.Name()] {
			return true
		}
		sig, okSig := fn.Type().(*types.Signature)
		if !okSig || sig.Recv() == nil || !analysis.NamedTypeIs(sig.Recv().Type(), "ga", "Runtime") {
			return true
		}
		if id, okID := ast.Unparen(call.Args[0]).(*ast.Ident); okID && info.Uses[id] == obj {
			destroyed = true
		}
		return true
	})
	return destroyed
}

// handleEscapes reports whether the handle is returned, stored, aliased,
// or placed in a composite literal anywhere in the scope subtree.
func handleEscapes(info *types.Info, scope analysis.FuncScope, obj types.Object) bool {
	if escapesViaReturn(info, scope, obj) {
		return true
	}
	escapes := false
	usesObj := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
				found = true
			}
			return true
		})
		return found
	}
	ast.Inspect(scope.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			// A store of the handle transfers ownership — except into
			// the blank identifier, which stores nothing.
			for i, rhs := range s.Rhs {
				if len(s.Lhs) == len(s.Rhs) {
					if id, ok := ast.Unparen(s.Lhs[i]).(*ast.Ident); ok && id.Name == "_" {
						continue
					}
				}
				if id, ok := ast.Unparen(rhs).(*ast.Ident); ok && info.Uses[id] == obj {
					escapes = true
				}
			}
		case *ast.CompositeLit:
			for _, elt := range s.Elts {
				if usesObj(elt) {
					escapes = true
				}
			}
		case *ast.SendStmt:
			if usesObj(s.Value) {
				escapes = true
			}
		}
		return true
	})
	return escapes
}

// callName renders the called expression for diagnostics.
func callName(info *types.Info, call *ast.CallExpr) string {
	if fn := analysis.CalleeFunc(info, call); fn != nil {
		return fn.Name()
	}
	return "call"
}
