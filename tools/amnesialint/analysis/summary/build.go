package summary

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
)

// Build computes one package's summaries, keyed by full name. prog
// supplies dependency summaries (may be nil); the result is not yet
// added to prog.
func Build(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, prog *Program) map[string]*FuncSummary {
	b := &pkgBuilder{pkg: pkg, info: info, prog: prog, out: map[string]*FuncSummary{}}
	names := map[*ast.FuncDecl]string{}
	var decls []*ast.FuncDecl
	for _, f := range files {
		if tf := fset.File(f.Pos()); tf != nil && strings.HasSuffix(tf.Name(), "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
				names[fd] = b.funcName(fd)
			}
		}
	}
	// Bottom-up within the package: wrappers of wrappers reach a
	// fixpoint in a few rounds (the bits only grow; the cap keeps
	// pathological recursion cheap).
	for round := 0; round < 4; round++ {
		changed := false
		for _, fd := range decls {
			name := names[fd]
			fs := &FuncSummary{Name: name}
			b.shapeBits(fd, fs)
			b.batchBits(fd, fs)
			if !reflect.DeepEqual(b.out[name], fs) {
				changed = true
			}
			b.out[name] = fs
		}
		if !changed {
			break
		}
	}
	return b.out
}

type pkgBuilder struct {
	pkg  *types.Package
	info *types.Info
	prog *Program
	out  map[string]*FuncSummary
}

func (b *pkgBuilder) funcName(fd *ast.FuncDecl) string {
	if obj, ok := b.info.Defs[fd.Name].(*types.Func); ok {
		return obj.FullName()
	}
	return b.pkg.Path() + "." + fd.Name.Name
}

// lookup resolves a callee summary: current package first (in-progress
// fixpoint state), then the cross-package program.
func (b *pkgBuilder) lookup(name string) *FuncSummary {
	if fs, ok := b.out[name]; ok {
		return fs
	}
	if b.prog != nil {
		return b.prog.Func(name)
	}
	return nil
}

func (b *pkgBuilder) objOf(id *ast.Ident) types.Object {
	if o := b.info.Uses[id]; o != nil {
		return o
	}
	return b.info.Defs[id]
}

func (b *pkgBuilder) callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := b.info.Uses[id].(*types.Func)
	return fn
}

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

// ---- goroutine-lifecycle shape bits ----

func (b *pkgBuilder) shapeBits(fd *ast.FuncDecl, fs *FuncSummary) {
	fs.Joins = BodyJoins(b.info, fd.Body)
	fs.ClosesChan = BodyClosesChan(fd.Body)
	fs.ChannelDriven = BodyChannelDriven(fd.Body)
	fs.UnstoppableLoop = BodyHasUnstoppableLoop(fd.Body)
	fs.HasLoop = BodyHasLoop(fd.Body)
	fs.WaitsOnChan = BodyWaitsOnChan(b.info, fd.Body)
	fs.RefsCtx = BodyRefsCtx(b.info, fd.Body)
}

// BodyHasLoop reports whether the body contains any for/range loop
// (outside nested function literals).
func BodyHasLoop(body ast.Node) bool {
	found := false
	inspectShallow(body, func(n ast.Node) {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			found = true
		}
	})
	return found
}

// BodyWaitsOnChan reports whether the body contains a select statement,
// a channel receive, or a range over a channel at any depth (outside
// nested function literals) — the shapes through which close() or a
// send can end the goroutine's wait.
func BodyWaitsOnChan(info *types.Info, body ast.Node) bool {
	found := false
	inspectShallow(body, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[x.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		}
	})
	return found
}

// BodyRefsCtx reports whether the body references any context.Context
// value (outside nested function literals).
func BodyRefsCtx(info *types.Info, body ast.Node) bool {
	found := false
	inspectShallow(body, func(n ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return
		}
		obj := info.Uses[id]
		if obj == nil {
			return
		}
		if v, ok := obj.(*types.Var); ok && isContextType(v.Type()) {
			found = true
		}
	})
	return found
}

func isContextType(t types.Type) bool {
	n, _ := t.(*types.Named)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// BodyJoins reports whether the body calls Done() on a sync.WaitGroup
// (outside nested function literals).
func BodyJoins(info *types.Info, body ast.Node) bool {
	found := false
	inspectShallow(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			return
		}
		if tv, ok := info.Types[sel.X]; ok && isWaitGroup(tv.Type) {
			found = true
		}
	})
	return found
}

func isWaitGroup(t types.Type) bool {
	n := namedOf(t)
	return n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync" && n.Obj().Name() == "WaitGroup"
}

// BodyClosesChan reports whether the body closes a channel (outside
// nested function literals) — the completion-signal shape.
func BodyClosesChan(body ast.Node) bool {
	found := false
	inspectShallow(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "close" {
			found = true
		}
	})
	return found
}

// BodyChannelDriven reports whether the body is a loop-free watcher:
// no for/range anywhere, and at least one channel receive or select.
func BodyChannelDriven(body ast.Node) bool {
	hasLoop, hasRecv := false, false
	inspectShallow(body, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			hasLoop = true
		case *ast.SelectStmt:
			hasRecv = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				hasRecv = true
			}
		}
	})
	return !hasLoop && hasRecv
}

// BodyHasUnstoppableLoop reports whether the body contains a
// condition-less for loop with no way out: no select, no channel
// receive, no return, no break/goto, no panic inside it.
func BodyHasUnstoppableLoop(body ast.Node) bool {
	found := false
	inspectShallow(body, func(n ast.Node) {
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			return
		}
		escapes := false
		inspectShallow(loop.Body, func(in ast.Node) {
			switch x := in.(type) {
			case *ast.SelectStmt, *ast.ReturnStmt:
				escapes = true
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					escapes = true
				}
			case *ast.BranchStmt:
				if x.Tok == token.BREAK || x.Tok == token.GOTO {
					escapes = true
				}
			case *ast.CallExpr:
				if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "panic" {
					escapes = true
				}
			}
		})
		if !escapes {
			found = true
		}
	})
	return found
}

// inspectShallow walks n without descending into nested function
// literals.
func inspectShallow(n ast.Node, fn func(ast.Node)) {
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok && c != n {
			return false
		}
		if c != nil {
			fn(c)
		}
		return true
	})
}

// ---- pooled-batch wrapper bits ----

func (b *pkgBuilder) batchBits(fd *ast.FuncDecl, fs *FuncSummary) {
	// ReturnsBatch: returns GetBatch() directly, or a variable assigned
	// from it.
	var fromGet []types.Object
	inspectShallow(fd.Body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
			return
		}
		if call, ok := as.Rhs[0].(*ast.CallExpr); ok && b.isBatchSource(call) {
			if id, ok := as.Lhs[0].(*ast.Ident); ok {
				if obj := b.objOf(id); obj != nil {
					fromGet = append(fromGet, obj)
				}
			}
		}
	})
	inspectShallow(fd.Body, func(n ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		for _, res := range ret.Results {
			if call, ok := ast.Unparen(res).(*ast.CallExpr); ok && b.isBatchSource(call) {
				fs.ReturnsBatch = true
			}
			if id, ok := ast.Unparen(res).(*ast.Ident); ok {
				obj := b.objOf(id)
				for _, have := range fromGet {
					if have == obj {
						fs.ReturnsBatch = true
					}
				}
			}
		}
	})

	// RecyclesParam: a parameter reaching PutBatch/RecycleChunk (or a
	// wrapper's recycling parameter) on some path.
	params := map[types.Object]int{}
	idx := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := b.info.Defs[name]; obj != nil {
					params[obj] = idx
				}
				idx++
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
	}
	if len(params) == 0 {
		return
	}
	seen := map[int]bool{}
	inspectShallow(fd.Body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		for argIdx, arg := range call.Args {
			id, ok := ast.Unparen(arg).(*ast.Ident)
			if !ok {
				continue
			}
			pidx, isParam := params[b.objOf(id)]
			if !isParam {
				continue
			}
			if b.isBatchSink(call, argIdx) && !seen[pidx] {
				seen[pidx] = true
				fs.RecyclesParam = append(fs.RecyclesParam, pidx)
			}
		}
	})
	sort.Ints(fs.RecyclesParam)
}

// isBatchSource reports a call that hands out a pooled batch: the
// engine's GetBatch or a wrapper summarized as returning one.
func (b *pkgBuilder) isBatchSource(call *ast.CallExpr) bool {
	fn := b.callee(call)
	if fn == nil {
		return false
	}
	if fn.Name() == "GetBatch" && pkgPathHasSuffix(fn.Pkg(), "internal/engine") {
		return true
	}
	sum := b.lookup(fn.FullName())
	return sum != nil && sum.ReturnsBatch
}

// isBatchSink reports a call that recycles the given argument index:
// the engine's PutBatch/RecycleChunk (any position) or a wrapper whose
// summary recycles that parameter.
func (b *pkgBuilder) isBatchSink(call *ast.CallExpr, argIdx int) bool {
	fn := b.callee(call)
	if fn == nil {
		return false
	}
	if (fn.Name() == "PutBatch" || fn.Name() == "RecycleChunk") && pkgPathHasSuffix(fn.Pkg(), "internal/engine") {
		return true
	}
	sum := b.lookup(fn.FullName())
	if sum == nil {
		return false
	}
	for _, pidx := range sum.RecyclesParam {
		if pidx == argIdx {
			return true
		}
	}
	return false
}

func pkgPathHasSuffix(pkg *types.Package, suffix string) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
