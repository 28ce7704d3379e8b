package analyzers

import (
	"go/ast"
	"strings"

	"amnesiadb/tools/amnesialint/analysis"
)

// CtxFlow keeps cancellation wired through the request path: no
// context.Background()/context.TODO() below the entry layers (server,
// cmd, tests). A fresh root context deep in the engine detaches that
// work from the request: a disconnected client keeps burning cores.
// Sanctioned public entry points (the facade's ctx-less compatibility
// API) carry an audited lint:ignore. Every engine dispatcher takes a
// context.Context parameter, so the compiler — not this analyzer —
// makes callers thread one.
var CtxFlow = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "request-path code must thread context.Context; no context.Background()/TODO() below the server layer",
	Run:  runCtxFlow,
}

// ctxExemptPkg reports whether the package is an entry layer where
// creating root contexts is the point: HTTP server, binaries, the
// scheduler's own internals, and this linter's tooling.
func ctxExemptPkg(path string) bool {
	return pathHasSegment(path, "cmd") ||
		pathHasSegment(path, "examples") ||
		pathHasSegment(path, "tools") ||
		strings.HasSuffix(path, "/server") ||
		strings.HasSuffix(path, "/sched")
}

func runCtxFlow(pass *analysis.Pass) error {
	if ctxExemptPkg(pass.Pkg.Path()) {
		return nil
	}
	info := pass.TypesInfo
	funcDecls(pass.Files, pass.Fset, func(fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isFuncNamed(info, call, "context", "Background") || isFuncNamed(info, call, "context", "TODO") {
				pass.Reportf(call.Pos(),
					"%s below the server layer detaches this work from the request; thread the caller's context (entry-point shims need an audited lint:ignore)",
					calleeFunc(info, call).FullName()+"()")
			}
			return true
		})
	})
	return nil
}
