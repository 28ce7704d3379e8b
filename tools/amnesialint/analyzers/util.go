// Package analyzers holds amnesialint's invariant checks. Each
// analyzer matches repo constructs structurally (by type shape, method
// set and import path suffix) rather than by hard-coded file names, so
// the same rules run against the real tree and against the test
// fixtures under testdata/.
package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"amnesiadb/tools/amnesialint/analysis"
	"amnesiadb/tools/amnesialint/analysis/summary"
)

// walkStack is ast.Inspect with an ancestor stack; stack excludes n,
// and fn returning false prunes n's children.
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// calleeFunc resolves the called function or method, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
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

// calleeSummary is the called function's cross-package summary, or nil.
func calleeSummary(pass *analysis.Pass, call *ast.CallExpr) *summary.FuncSummary {
	if fn := calleeFunc(pass.TypesInfo, call); fn != nil {
		return pass.Prog.Func(fn.FullName())
	}
	return nil
}

// isFuncNamed reports whether call invokes a function named name whose
// defining package's import path ends in pathSuffix (an empty suffix
// matches any package, including the one under analysis).
func isFuncNamed(info *types.Info, call *ast.CallExpr, pathSuffix, name string) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Name() != name {
		return false
	}
	return pkgPathHasSuffix(fn.Pkg(), pathSuffix)
}

func pkgPathHasSuffix(pkg *types.Package, suffix string) bool {
	if suffix == "" {
		return true
	}
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	suffix = strings.TrimPrefix(suffix, "/")
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// pathHasSegment reports whether seg appears as a complete segment of
// the slash-separated import path.
func pathHasSegment(path, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}

// namedOf unwraps pointers and returns the named type, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, _ := t.(*types.Named)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// hasCtxParam reports whether the function declaration takes a
// context.Context parameter.
func hasCtxParam(info *types.Info, fd *ast.FuncDecl) bool {
	obj, _ := info.Defs[fd.Name].(*types.Func)
	if obj == nil {
		return false
	}
	sig, _ := obj.Type().(*types.Signature)
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// isErrorSentinel reports whether e resolves to an exported
// package-level variable of an error type — the shape of ErrNoRows,
// ErrReadOnly, sql.ErrInvalid and friends.
func isErrorSentinel(info *types.Info, e ast.Expr) bool {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return false
	}
	v, _ := info.Uses[id].(*types.Var)
	if v == nil || !v.Exported() || v.Pkg() == nil {
		return false
	}
	if v.Parent() != v.Pkg().Scope() {
		return false
	}
	return isErrorType(v.Type())
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return types.Implements(t, errorIface) || types.Implements(types.NewPointer(t), errorIface)
}

// isNil reports whether e is the predeclared nil.
func isNil(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNilObj := info.Uses[id].(*types.Nil)
	return isNilObj
}

// funcDecls yields every function declaration with a body across the
// pass's files, skipping _test.go files.
func funcDecls(files []*ast.File, fset *token.FileSet, fn func(*ast.FuncDecl)) {
	for _, f := range files {
		if tf := fset.File(f.Pos()); tf != nil && strings.HasSuffix(tf.Name(), "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}
