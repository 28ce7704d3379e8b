package analyzers

import (
	"go/ast"
	"go/types"

	"amnesiadb/tools/amnesialint/analysis"
)

// NoFsyncSkip enforces the durability handshake: a mutator that
// enqueues a WAL record (logRecord) must not report success until the
// group-commit ack arrives. Concretely, any function calling logRecord
// must either await commitWait itself or hand the *durability.Pending
// back to its caller (the *Locked helper pattern: append under the
// lock, ack outside it); and a commitWait result must never be
// discarded — dropping it acknowledges a write that may still be
// sitting in an unsynced buffer when the process dies.
var NoFsyncSkip = &analysis.Analyzer{
	Name: "nofsyncskip",
	Doc:  "mutators that enqueue WAL records must await commitWait (or return the Pending); the commitWait error must be used",
	Run:  runNoFsyncSkip,
}

func runNoFsyncSkip(pass *analysis.Pass) error {
	funcDecls(pass.Files, pass.Fset, func(fd *ast.FuncDecl) {
		obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		var sig *types.Signature
		if obj != nil {
			sig, _ = obj.Type().(*types.Signature)
		}
		checkFsyncUnit(pass, fd.Name.Name, fd.Body, sig)
	})
	return nil
}

// checkFsyncUnit checks one ownership unit: a declaration, or a closure
// whose results include a *durability.Pending — the fn a mutation
// scaffold runs under the lock and awaits after it. Such closures are
// their own units, the way govflow analyzes FuncLits independently, and
// are skipped in the enclosing one.
func checkFsyncUnit(pass *analysis.Pass, name string, body *ast.BlockStmt, sig *types.Signature) {
	var logCalls, waitCalls []*ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if lit, ok := pass.TypesInfo.Types[n].Type.(*types.Signature); ok && returnsPending(lit) {
				checkFsyncUnit(pass, name+" (closure)", n.Body, lit)
				return false
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "logRecord":
					logCalls = append(logCalls, n)
				case "commitWait":
					waitCalls = append(waitCalls, n)
				}
			}
		}
		return true
	})
	if len(logCalls) > 0 && len(waitCalls) == 0 && !returnsPending(sig) {
		pass.Reportf(logCalls[0].Pos(),
			"%s enqueues a WAL record but neither awaits commitWait nor returns the Pending; callers would see success before the fsync ack",
			name)
	}
	reportDiscardedWaits(pass, name, body, waitCalls)
}

// returnsPending reports whether sig's results include a
// *durability.Pending (or a slice of them) — the ownership-transfer
// signature of the *Locked helpers and the scaffold closures.
func returnsPending(sig *types.Signature) bool {
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		t := sig.Results().At(i).Type()
		if s, ok := t.Underlying().(*types.Slice); ok {
			t = s.Elem()
		}
		n := namedOf(t)
		if n != nil && n.Obj().Name() == "Pending" && pkgPathHasSuffix(n.Obj().Pkg(), "internal/durability") {
			return true
		}
	}
	return false
}

// reportDiscardedWaits flags commitWait calls whose error result is
// thrown away: bare expression statements, defers, and blank-assigns.
func reportDiscardedWaits(pass *analysis.Pass, name string, body *ast.BlockStmt, waits []*ast.CallExpr) {
	if len(waits) == 0 {
		return
	}
	discarded := make(map[*ast.CallExpr]string)
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				discarded[call] = "discarded"
			}
		case *ast.DeferStmt:
			discarded[s.Call] = "deferred with its error discarded"
		case *ast.GoStmt:
			discarded[s.Call] = "launched async with its error discarded"
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 && allBlank(s.Lhs) {
				if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
					discarded[call] = "assigned to _"
				}
			}
		}
		return true
	})
	for _, w := range waits {
		if how, ok := discarded[w]; ok {
			pass.Reportf(w.Pos(),
				"commitWait %s in %s; the mutator would report success before the group-commit ack reaches disk", how, name)
		}
	}
}

func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}
