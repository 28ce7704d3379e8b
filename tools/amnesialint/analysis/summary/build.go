package summary

import (
	"encoding/json"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"amnesiadb/tools/amnesialint/analysis/cfg"
)

// Local is the non-serializable side product of Build: the CFGs and
// summary names of the package's own functions, for analyzers that walk
// flow themselves (recycleflow) or need a spawned function's body
// (goroutinelife).
type Local struct {
	// Graphs maps each *ast.FuncDecl and *ast.FuncLit to its CFG.
	Graphs map[ast.Node]*cfg.Graph
	// NameOf maps each *ast.FuncDecl to its summary (full) name.
	NameOf map[ast.Node]string
}

// Build computes one package's summaries. prog supplies dependency
// summaries (may be nil); the returned Package is not yet added to
// prog — drivers add it after diagnostics so a package never consumes
// its own half-built state.
func Build(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, prog *Program) (*Package, *Local) {
	b := &pkgBuilder{
		fset: fset, pkg: pkg, info: info, prog: prog,
		out:   &Package{Path: pkg.Path(), Funcs: map[string]*FuncSummary{}},
		local: &Local{Graphs: map[ast.Node]*cfg.Graph{}, NameOf: map[ast.Node]string{}},
	}
	var decls []*ast.FuncDecl
	for _, f := range files {
		if tf := fset.File(f.Pos()); tf != nil && strings.HasSuffix(tf.Name(), "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
				b.local.Graphs[fd] = cfg.New(fd.Body)
				b.local.NameOf[fd] = b.funcName(fd)
			}
		}
	}
	// Bottom-up within the package: mutually recursive functions reach a
	// fixpoint in a few rounds (acquire sets only grow; the bound is the
	// hierarchy depth, and the cap keeps pathological recursion cheap).
	for round := 0; round < 4; round++ {
		changed := false
		for _, fd := range decls {
			name := b.local.NameOf[fd]
			fs := b.summarize(fd, name)
			if !sameSummary(b.out.Funcs[name], fs) {
				changed = true
			}
			b.out.Funcs[name] = fs
		}
		if !changed {
			break
		}
	}
	// Edges are collected once, after summaries stabilized, so witness
	// chains reflect the final call-graph knowledge. Closure bodies
	// contribute their internal edges as anonymous functions.
	b.edges = nil
	b.edgeSeen = map[string]bool{}
	for _, fd := range decls {
		b.collectEdges(fd.Body, b.local.Graphs[fd], b.local.NameOf[fd], true)
	}
	b.out.Edges = b.edges
	return b.out, b.local
}

type pkgBuilder struct {
	fset  *token.FileSet
	pkg   *types.Package
	info  *types.Info
	prog  *Program
	out   *Package
	local *Local

	edges    []Edge
	edgeSeen map[string]bool

	// binds maps a local func-typed variable to the lock classes it
	// releases when called: `unlock := db.lockCatalog()` stores the
	// callee's held-at-exit classes, and a later `unlock()` (or `defer
	// unlock()`) drops them again. Reset per flow run.
	binds map[types.Object][]ClassID
}

func (b *pkgBuilder) funcName(fd *ast.FuncDecl) string {
	if obj, ok := b.info.Defs[fd.Name].(*types.Func); ok {
		return obj.FullName()
	}
	return b.pkg.Path() + "." + fd.Name.Name
}

func (b *pkgBuilder) site(pos token.Pos) Site {
	p := b.fset.Position(pos)
	return Site{File: p.Filename, Line: p.Line, Pos: pos}
}

// lookup resolves a callee summary: current package first (in-progress
// fixpoint state), then the cross-package program.
func (b *pkgBuilder) lookup(name string) *FuncSummary {
	if fs, ok := b.out.Funcs[name]; ok {
		return fs
	}
	if b.prog != nil {
		return b.prog.Func(name)
	}
	return nil
}

func sameSummary(a, b *FuncSummary) bool {
	if a == nil || b == nil {
		return a == b
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	return string(aj) == string(bj)
}

// ---- per-function summarization ----

func (b *pkgBuilder) summarize(fd *ast.FuncDecl, name string) *FuncSummary {
	fs := &FuncSummary{Name: name}
	g := b.local.Graphs[fd]

	held := b.flowHeld(g, fd.Body, func(class ClassID, site Site, via []string) {
		addAcq(fs, Acq{Class: class, Site: site, Via: via})
	})
	// A lock released on its owner's behalf — `h.mu.RUnlockFor(owner)`,
	// typically inside a closure another goroutine runs — is handed
	// off: the owner-keyed release is the stream handoff protocol's
	// witness (docs/LOCKING.md), so those classes are not held at exit.
	for class := range b.handoffs(fd.Body) {
		delete(held, class)
	}
	for class := range held {
		fs.HeldAtExit = append(fs.HeldAtExit, class)
	}
	sort.Slice(fs.HeldAtExit, func(i, j int) bool { return fs.HeldAtExit[i] < fs.HeldAtExit[j] })

	b.shapeBits(fd, fs)
	b.batchBits(fd, fs)
	return fs
}

func addAcq(fs *FuncSummary, a Acq) {
	for _, have := range fs.Acquires {
		if have.Class == a.Class {
			return // first witness wins
		}
	}
	fs.Acquires = append(fs.Acquires, a)
}

type heldInfo struct {
	site Site
	how  string // "<fn> locks <class> at <site>" or via-call provenance
}

type heldSet map[ClassID]heldInfo

func (h heldSet) clone() heldSet {
	out := make(heldSet, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

func (h heldSet) union(o heldSet) bool {
	changed := false
	for k, v := range o {
		if _, ok := h[k]; !ok {
			h[k] = v
			changed = true
		}
	}
	return changed
}

// flowHeld runs the may-hold dataflow over g and returns the held set
// at exit (after defers). onAcquire fires once per distinct class the
// function may acquire, with its witness.
func (b *pkgBuilder) flowHeld(g *cfg.Graph, body ast.Node, onAcquire func(ClassID, Site, []string)) heldSet {
	b.binds = map[types.Object][]ClassID{}
	in := make([]heldSet, len(g.Blocks))
	for i := range in {
		in[i] = heldSet{}
	}
	work := []*cfg.Block{g.Entry}
	seen := make([]bool, len(g.Blocks))
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		seen[blk.Index] = true
		out := in[blk.Index].clone()
		for _, n := range blk.Nodes {
			b.transfer(n, out, onAcquire)
		}
		for _, s := range blk.Succs {
			// Propagate on change; also visit untouched successors at
			// least once so straight-line nodes are processed.
			if in[s.Index].union(out) || !seen[s.Index] {
				if !contains(work, s) {
					work = append(work, s)
				}
			}
		}
	}
	// Exit: replay defers LIFO with the exit held set.
	exit := in[g.Exit.Index]
	for i := len(g.Defers) - 1; i >= 0; i-- {
		b.transferCall(g.Defers[i].Call, exit, onAcquire)
	}
	return exit
}

func contains(blocks []*cfg.Block, b *cfg.Block) bool {
	for _, have := range blocks {
		if have == b {
			return true
		}
	}
	return false
}

// transfer applies one CFG node's lock effects to held. Nested function
// literals are skipped — they execute on their own goroutine or at a
// call site the walker cannot see, and are analyzed separately with an
// empty held set.
func (b *pkgBuilder) transfer(n ast.Node, held heldSet, onAcquire func(ClassID, Site, []string)) {
	if _, ok := n.(*ast.DeferStmt); ok {
		return // applied at exit
	}
	if g, ok := n.(*ast.GoStmt); ok {
		_ = g
		return // runs on another goroutine; no same-thread nesting
	}
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.AssignStmt:
			b.bindUnlocks(c)
		case *ast.CallExpr:
			b.transferCall(c, held, onAcquire)
		}
		return true
	})
}

// bindUnlocks records `unlock := db.lockCatalog()`-style bindings: a
// func-typed variable assigned from a call whose callee returns holding
// locks releases exactly those classes when invoked.
func (b *pkgBuilder) bindUnlocks(as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := b.callee(call)
	if fn == nil {
		return
	}
	sum := b.lookup(fn.FullName())
	if sum == nil || len(sum.HeldAtExit) == 0 {
		return
	}
	for _, lhs := range as.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		obj := b.objOf(id)
		if obj == nil {
			continue
		}
		if _, isFunc := obj.Type().Underlying().(*types.Signature); isFunc {
			b.binds[obj] = sum.HeldAtExit
		}
	}
}

// releaseBound applies a call to a bound unlock variable, reporting
// whether the call was one.
func (b *pkgBuilder) releaseBound(call *ast.CallExpr, held heldSet) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	classes, ok := b.binds[b.objOf(id)]
	if !ok {
		return false
	}
	for _, class := range classes {
		delete(held, class)
	}
	return true
}

// handoffs collects the lock classes released by an owner-keyed
// RUnlockFor anywhere in body, including nested closures.
func (b *pkgBuilder) handoffs(body ast.Node) map[ClassID]bool {
	out := map[ClassID]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "RUnlockFor" {
			return true
		}
		tv, ok := b.info.Types[sel.X]
		if !ok {
			return true
		}
		rankName, isMutex := mutexTypeRank(tv.Type)
		if !isMutex {
			return true
		}
		if class, ok := b.classify(sel.X, rankName); ok {
			out[class] = true
		}
		return true
	})
	return out
}

// transferCall applies one call: a mutex Lock/Unlock mutates held
// directly; a static call to a summarized function contributes its
// acquisitions (edges against everything held here) and its
// held-at-exit classes.
func (b *pkgBuilder) transferCall(call *ast.CallExpr, held heldSet, onAcquire func(ClassID, Site, []string)) {
	if b.releaseBound(call, held) {
		return
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// Immediately-invoked (or deferred) literal: runs right here
		// with the current held set.
		b.transfer(lit.Body, held, onAcquire)
		return
	}
	if op, ok := b.lockOp(call); ok {
		if op.acquire {
			onAcquire(op.class, op.site, nil)
			if _, have := held[op.class]; !have {
				held[op.class] = heldInfo{site: op.site, how: "locks " + op.class.Short() + " at " + op.site.String()}
			}
		} else {
			delete(held, op.class)
		}
		return
	}
	fn := b.callee(call)
	if fn == nil {
		return
	}
	sum := b.lookup(fn.FullName())
	if sum == nil {
		return
	}
	site := b.site(call.Pos())
	for _, acq := range sum.Acquires {
		via := append([]string{fn.FullName()}, acq.Via...)
		if len(via) > 8 {
			via = via[:8]
		}
		onAcquire(acq.Class, site, via)
	}
	for _, class := range sum.HeldAtExit {
		if _, have := held[class]; !have {
			held[class] = heldInfo{site: site, how: "calls " + fn.FullName() + " at " + site.String() + " which returns holding " + class.Short()}
		}
	}
}

// ---- lock-site classification ----

type lockOp struct {
	class   ClassID
	site    Site
	acquire bool
}

// lockOp classifies a call as a mutex acquisition/release and names its
// lock class, structurally: the rank comes from the lockrank wrapper
// type when one is used, else from the owning type's method set
// (Relations -> catalog, liveLocked -> relation) or the owning
// package's name (partition -> shard, sched -> sched).
func (b *pkgBuilder) lockOp(call *ast.CallExpr) (lockOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	var acquire bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock", "RUnlockFor":
		acquire = false
	default:
		return lockOp{}, false
	}
	tv, ok := b.info.Types[sel.X]
	if !ok {
		return lockOp{}, false
	}
	rankName, isMutex := mutexTypeRank(tv.Type)
	if !isMutex {
		return lockOp{}, false
	}
	class, ok := b.classify(sel.X, rankName)
	if !ok {
		return lockOp{}, false
	}
	return lockOp{class: class, site: b.site(call.Pos()), acquire: acquire}, true
}

// mutexTypeRank reports whether t is a mutex-shaped type, and the rank
// its type name implies when it is a lockrank wrapper ("" otherwise).
func mutexTypeRank(t types.Type) (string, bool) {
	n, _ := t.(*types.Named)
	if n == nil {
		if p, ok := t.(*types.Pointer); ok {
			n, _ = p.Elem().(*types.Named)
		}
	}
	if n == nil || n.Obj().Pkg() == nil {
		return "", false
	}
	path, name := n.Obj().Pkg().Path(), n.Obj().Name()
	if path == "sync" && (name == "Mutex" || name == "RWMutex") {
		return "", true
	}
	if strings.HasSuffix(path, "lockrank") {
		switch name {
		case "Catalog":
			return "catalog", true
		case "Relation":
			return "relation", true
		case "Shard":
			return "shard", true
		}
		return "", true
	}
	return "", false
}

// classify names the lock class of a mutex expression.
func (b *pkgBuilder) classify(mu ast.Expr, rankName string) (ClassID, bool) {
	switch x := ast.Unparen(mu).(type) {
	case *ast.SelectorExpr:
		// owner.field: class is (owner type, field).
		ownerT := b.info.Types[x.X].Type
		n := namedOf(ownerT)
		if n == nil {
			return "", false
		}
		ownerPkg := b.pkg.Path()
		if n.Obj().Pkg() != nil {
			ownerPkg = n.Obj().Pkg().Path()
		}
		rank := rankName
		if rank == "" && x.Sel.Name == "mu" {
			// Only the canonical `mu` field carries the owner's
			// structural rank; auxiliary mutexes on the same struct
			// (srcMu, snapMu, ...) are leaves or side protocols and
			// participate in cycle detection only.
			rank = structuralRank(n, ownerPkg)
		}
		if rank == "" {
			rank = "other"
		}
		return ClassID(rank + ":" + ownerPkg + "|" + n.Obj().Name() + "." + x.Sel.Name), true
	case *ast.Ident:
		v, _ := b.objOf(x).(*types.Var)
		if v == nil {
			return "", false
		}
		rank := rankName
		if rank == "" {
			rank = pkgRank(b.pkg.Path())
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return ClassID(rank + ":" + v.Pkg().Path() + "|" + v.Name()), true
		}
		// Function-local mutex: qualify by position to keep distinct
		// functions' locals distinct.
		p := b.fset.Position(v.Pos())
		return ClassID(rank + ":" + b.pkg.Path() + "|" + "local." + v.Name() + "@" + trimPath(p.Filename) + ":" + itoa(p.Line)), true
	}
	return "", false
}

func (b *pkgBuilder) objOf(id *ast.Ident) types.Object {
	if o := b.info.Uses[id]; o != nil {
		return o
	}
	return b.info.Defs[id]
}

func structuralRank(n *types.Named, ownerPkg string) string {
	if hasMethod(n, "Relations") {
		return "catalog"
	}
	if hasMethod(n, "liveLocked") {
		return "relation"
	}
	return pkgRank(ownerPkg)
}

func pkgRank(path string) string {
	switch {
	case strings.HasSuffix(path, "partition"):
		return "shard"
	case strings.HasSuffix(path, "sched"):
		return "sched"
	}
	return "other"
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

func hasMethod(t types.Type, name string) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(n))
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == name {
			return true
		}
	}
	return false
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

func trimPath(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// ---- edges ----

// collectEdges re-runs the held-flow over a function body, emitting
// lock-graph edges; topLevel distinguishes declared functions from
// closure sub-walks (closures start with an empty held set: they run on
// their own goroutine or at an unseen call site, so only their internal
// nesting is evidence).
func (b *pkgBuilder) collectEdges(body *ast.BlockStmt, g *cfg.Graph, fnName string, topLevel bool) {
	if g == nil {
		g = cfg.New(body)
	}
	b.flowEdges(g, fnName)
	// Closures (including go-statement bodies): independent walks.
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			sub := cfg.New(lit.Body)
			b.local.Graphs[lit] = sub
			b.collectEdges(lit.Body, sub, fnName+".func", false)
			return false
		}
		return true
	})
}

func (b *pkgBuilder) flowEdges(g *cfg.Graph, fnName string) {
	b.binds = map[types.Object][]ClassID{}
	in := make([]heldSet, len(g.Blocks))
	for i := range in {
		in[i] = heldSet{}
	}
	work := []*cfg.Block{g.Entry}
	seenBlock := make([]bool, len(g.Blocks))
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		seenBlock[blk.Index] = true
		out := in[blk.Index].clone()
		for _, n := range blk.Nodes {
			b.edgeTransfer(n, out, fnName)
		}
		for _, s := range blk.Succs {
			if in[s.Index].union(out) || !seenBlock[s.Index] {
				if !contains(work, s) {
					work = append(work, s)
				}
			}
		}
	}
	exit := in[g.Exit.Index]
	for i := len(g.Defers) - 1; i >= 0; i-- {
		b.edgeCall(g.Defers[i].Call, exit, fnName)
	}
}

func (b *pkgBuilder) edgeTransfer(n ast.Node, held heldSet, fnName string) {
	switch n.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.AssignStmt:
			b.bindUnlocks(c)
		case *ast.CallExpr:
			b.edgeCall(c, held, fnName)
		}
		return true
	})
}

func (b *pkgBuilder) edgeCall(call *ast.CallExpr, held heldSet, fnName string) {
	if b.releaseBound(call, held) {
		return
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		b.edgeTransfer(lit.Body, held, fnName)
		return
	}
	if op, ok := b.lockOp(call); ok {
		if op.acquire {
			for from, info := range held {
				b.addEdge(Edge{
					From: from, To: op.class,
					FromSite: info.site, AtSite: op.site, Fn: fnName, Owner: b.pkg.Path(),
					Path: []string{
						fnName + " " + info.how,
						fnName + " locks " + op.class.Short() + " at " + op.site.String(),
					},
				})
			}
			if _, have := held[op.class]; !have {
				held[op.class] = heldInfo{site: op.site, how: "locks " + op.class.Short() + " at " + op.site.String()}
			}
		} else {
			delete(held, op.class)
		}
		return
	}
	fn := b.callee(call)
	if fn == nil {
		return
	}
	sum := b.lookup(fn.FullName())
	if sum == nil {
		return
	}
	site := b.site(call.Pos())
	for _, acq := range sum.Acquires {
		for from, info := range held {
			path := []string{
				fnName + " " + info.how,
				fnName + " calls " + fn.FullName() + " at " + site.String(),
				fn.FullName() + " acquires " + acq.Class.Short() + " at " + acq.Site.String(),
			}
			for _, v := range acq.Via {
				path = append(path, "  via "+v)
			}
			b.addEdge(Edge{
				From: from, To: acq.Class,
				FromSite: info.site, AtSite: site, Fn: fnName, Owner: b.pkg.Path(),
				Path: path,
			})
		}
	}
	for _, class := range sum.HeldAtExit {
		if _, have := held[class]; !have {
			held[class] = heldInfo{site: site, how: "calls " + fn.FullName() + " at " + site.String() + " which returns holding " + class.Short()}
		}
	}
}

func (b *pkgBuilder) addEdge(e Edge) {
	// The class owner's own package is allowed same-class nesting: its
	// internal hand-over-hand and condvar patterns (sched's runStep,
	// name-ordered relation batches) are the documented protocols the
	// hierarchy builds on, pinned by the repo's race tests instead.
	if e.From == e.To && e.From.OwnerPkg() == b.pkg.Path() {
		return
	}
	key := string(e.From) + "->" + string(e.To) + "@" + e.AtSite.String()
	if b.edgeSeen[key] {
		return
	}
	b.edgeSeen[key] = true
	b.edges = append(b.edges, e)
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
