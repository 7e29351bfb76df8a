// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis surface that the fouridxlint analyzers
// need. The container this repository is developed in has no module
// proxy access, so instead of vendoring x/tools the framework is built
// directly on the standard library: go/ast + go/types for the analyses
// themselves and `go list -json -deps` for package loading (see load.go).
//
// The analyzers enforce disciplines the Go compiler cannot see but the
// paper's data-movement accounting depends on:
//
//   - gadiscipline: local buffers and distributed arrays of the ga
//     runtime must be released, so per-process high-water marks match
//     the S >= n^2 + n + 1 capacity analysis of Section 5.
//   - symindex: packed triangular indexing must go through internal/sym,
//     so the |in| + |out| accounting has a single source of truth.
//   - metricsdiscipline: metrics.Counters and trace.Tracer state must
//     be touched only through their accessor methods, and
//     simulated-time code must not read wall clocks.
//   - errflow: errors from the runtime (notably ErrGlobalOOM and
//     ErrLocalOOM, which reproduce the paper's "Failed" configurations)
//     must not be silently discarded.
//   - docstring: packages under internal/ and the root package must
//     carry package comments and documented exports, keeping formulas
//     and schedules tied to the paper sections they reproduce.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics (lowercase, no spaces).
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package and reports findings
	// through pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one package's syntax and type information to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// WallClock lists the time-package functions that read or schedule
// against the real clock. It is shared by every analyzer that keeps the
// wall clock out of deterministic code.
var WallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// CalleeFunc resolves the *types.Func a call expression invokes, or nil
// for calls through function values, type conversions, and builtins.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsMethodCall reports whether call invokes the method recvType.method
// where recvType is a named type declared in a package named pkgName.
// Matching is by package *name* rather than full import path so that the
// same analyzers work against both the real runtime packages and
// self-contained test fixtures.
func IsMethodCall(info *types.Info, call *ast.CallExpr, pkgName, recvType, method string) bool {
	fn := CalleeFunc(info, call)
	if fn == nil || fn.Name() != method {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return namedTypeIs(sig.Recv().Type(), pkgName, recvType)
}

// namedTypeIs reports whether t (possibly behind a pointer) is the named
// type pkgName.typeName.
func namedTypeIs(t types.Type, pkgName, typeName string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}

// NamedTypeIs is the exported form of namedTypeIs for analyzers.
func NamedTypeIs(t types.Type, pkgName, typeName string) bool {
	return namedTypeIs(t, pkgName, typeName)
}

// FuncScopes returns every function body in file paired with its
// enclosing function node (FuncDecl or FuncLit), outermost first.
func FuncScopes(file *ast.File) []FuncScope {
	var out []FuncScope
	ast.Inspect(file, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				out = append(out, FuncScope{Node: fn, Body: fn.Body})
			}
		case *ast.FuncLit:
			out = append(out, FuncScope{Node: fn, Body: fn.Body})
		}
		return true
	})
	return out
}

// FuncScope is one function body (declaration or literal).
type FuncScope struct {
	Node ast.Node       // *ast.FuncDecl or *ast.FuncLit
	Body *ast.BlockStmt // never nil
}

// InspectOwn walks the statements of scope's body but does not descend
// into nested function literals: those are separate scopes.
func (s FuncScope) InspectOwn(f func(n ast.Node) bool) {
	ast.Inspect(s.Body, func(n ast.Node) bool {
		if n == ast.Node(s.Body) {
			return f(n)
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		return f(n)
	})
}
