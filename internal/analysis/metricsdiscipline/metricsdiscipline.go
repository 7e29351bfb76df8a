// Package metricsdiscipline enforces the accounting discipline of the
// metrics package and the cost model.
//
// Check 1: fields of the guarded accounting types — metrics.Counters
// and trace.Tracer — may be touched only by methods of the type itself.
// The counters mix atomics and a mutex-guarded ledger; the tracer's
// ring buffer, span stack, and per-process sequence counters are all
// protected by its mutex. Any access outside the accessor methods
// either races or reads a torn view, and cost-mode/execute-mode runs
// then stop reporting identical data-movement numbers (the property
// the whole evaluation rests on).
//
// Check 2: simulated-time code must not consult the wall clock. All
// timing inside the runtime and the schedules comes from the machine
// cost model (cluster.Run); a time.Now in a cost path makes the
// replayed molecule-scale experiments nondeterministic. Wall-clock use
// is allowed only in package main (drivers, figure generation), in the
// experiments reporting package, and in the perf benchmark harness —
// measuring wall time is perf's entire purpose, and its deterministic
// report layer is pinned separately by its own golden and determinism
// tests.
package metricsdiscipline

import (
	"go/ast"
	"go/types"
	"strings"

	"fourindex/internal/analysis"
)

// Analyzer is the metricsdiscipline analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "metricsdiscipline",
	Doc:  "metrics.Counters and trace.Tracer state only via accessor methods; no wall-clock reads in simulated-time code",
	Run:  run,
}

// guardedTypes lists the (package name, type name) pairs whose fields
// are off limits outside their own methods. Matching is by package name
// (see analysis.IsMethodCall) so the self-contained test fixtures
// exercise the same paths as the real packages.
var guardedTypes = [...][2]string{
	{"metrics", "Counters"},
	{"trace", "Tracer"},
}

func run(pass *analysis.Pass) error {
	clockAllowed := pass.Pkg.Name() == "main" ||
		strings.Contains(pass.Pkg.Path(), "experiments") ||
		strings.HasSuffix(pass.Pkg.Path(), "/perf")
	for _, file := range pass.Files {
		checkCounterFields(pass, file)
		if !clockAllowed {
			checkWallClock(pass, file)
		}
	}
	return nil
}

// checkCounterFields flags selector accesses to guarded-type fields
// from anywhere but a method of that same type.
func checkCounterFields(pass *analysis.Pass, file *ast.File) {
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s := pass.TypesInfo.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal {
				return true
			}
			for _, gt := range guardedTypes {
				if analysis.NamedTypeIs(s.Recv(), gt[0], gt[1]) && !isMethodOf(pass.TypesInfo, fn, gt[0], gt[1]) {
					pass.Reportf(sel.Pos(), "direct access to %s.%s field %q bypasses its mutex/atomic accessors; cost-mode and execute-mode accounting diverge under races", gt[0], gt[1], sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// isMethodOf reports whether fn is declared with a pkgName.typeName (or
// pointer-to) receiver.
func isMethodOf(info *types.Info, fn *ast.FuncDecl, pkgName, typeName string) bool {
	if fn.Recv == nil || len(fn.Recv.List) != 1 {
		return false
	}
	t := info.Types[fn.Recv.List[0].Type].Type
	return t != nil && analysis.NamedTypeIs(t, pkgName, typeName)
}

// checkWallClock flags uses of real-clock functions from package time.
func checkWallClock(pass *analysis.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || !analysis.WallClock[id.Name] {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
			return true
		}
		pass.Reportf(id.Pos(), "wall-clock time.%s in simulated-time code; use the cluster.Run cost model (Proc.Clock) so cost-mode replays stay deterministic", id.Name)
		return true
	})
}
