// Package replaypure enforces the runtime's window-purity contract
// (sim.Object). Operations run as resumable frames: Begin executes the
// invocation window, each Frame.Step call executes one access window,
// and the engine grants the windows. One structural rule keeps the
// window structure — and with it the schedules, footprints and
// fingerprints pinned by the golden schedule trees — intact:
//
//   - The invocation window carries no footprint: Begin bodies must not
//     declare accesses (Proc.Access, or any base window method such as
//     ReadW/WriteW/CompareAndSwapW). A Begin that touched shared state
//     would fold an access into the invocation step, giving the
//     operation a scheduler-visible effect that no decision accounts
//     for. Proc.Observe IS allowed: local state that steers the
//     operation (e.g. a transaction's active flag) is folded into the
//     fingerprint in the invocation window.
//
// The analyzer identifies Begin methods by shape: a method named Begin
// taking (*Proc, Invocation) with three results. Methods that match the
// shape but are not sim objects may exempt themselves with
// //slx:nostepwindow and a reason.
package replaypure

import (
	"go/ast"

	"repro/internal/lint/analysis"
	"repro/internal/lint/pragma"
)

// Analyzer is the replaypure check.
var Analyzer = &analysis.Analyzer{
	Name: "replaypure",
	Doc:  "continuation Begin windows must declare no accesses",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Recv == nil {
				continue
			}
			if !isBegin(fn) {
				continue
			}
			if pragma.Has(fn.Doc, "nostepwindow") {
				continue
			}
			checkBegin(pass, fn)
		}
	}
	return nil
}

// checkBegin scans one Begin body for accesses in the invocation window.
func checkBegin(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isAccessCall(call) {
			pass.Reportf(call.Pos(), "Begin declares a footprint in the invocation window: the invocation window performs no access, so move this into the frame's first Step (or annotate the method //slx:nostepwindow)")
		} else if name, ok := windowCall(call); ok {
			pass.Reportf(call.Pos(), "Begin calls the window method %s in the invocation window: the invocation window performs no access, so move this into the frame's first Step (or annotate the method //slx:nostepwindow)", name)
		}
		return true
	})
}

// isBegin reports whether a method declaration has the Object.Begin
// shape. Shapes are matched structurally — name, arity and a *Proc
// first parameter — because the analyzer runs without type information.
func isBegin(fn *ast.FuncDecl) bool {
	if fn.Name.Name != "Begin" || fn.Type.Results == nil {
		return false
	}
	return count(fn.Type.Params.List) == 2 && count(fn.Type.Results.List) == 3 &&
		isProcPtr(fn.Type.Params.List[0].Type)
}

// count returns the number of entries a field list declares.
func count(fields []*ast.Field) int {
	n := 0
	for _, f := range fields {
		if k := len(f.Names); k > 0 {
			n += k
		} else {
			n++
		}
	}
	return n
}

// isProcPtr matches *Proc, *sim.Proc and *run.Proc parameter types.
func isProcPtr(t ast.Expr) bool {
	star, ok := t.(*ast.StarExpr)
	if !ok {
		return false
	}
	switch x := star.X.(type) {
	case *ast.Ident:
		return x.Name == "Proc"
	case *ast.SelectorExpr:
		return x.Sel.Name == "Proc"
	}
	return false
}

// isAccessCall matches the footprint declaration: a .Access method
// call (sim.Proc).
func isAccessCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Access"
}

// windowMethods is the base-object window-form vocabulary: every one
// declares a footprint for the window it runs in.
var windowMethods = map[string]bool{
	"ReadW": true, "WriteW": true, "CompareAndSwapW": true, "SwapW": true,
	"TestAndSetW": true, "ResetW": true, "AddW": true, "UpdateW": true,
	"ScanW": true,
}

// windowCall matches calls of base window methods (method name ending
// in W from the known vocabulary) and returns the method name.
func windowCall(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !windowMethods[sel.Sel.Name] {
		return "", false
	}
	return sel.Sel.Name, true
}
