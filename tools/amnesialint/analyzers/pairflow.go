package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"amnesiadb/tools/amnesialint/analysis"
	"amnesiadb/tools/amnesialint/analysis/cfg"
)

// PairFlow tracks paired resources path-sensitively over the CFG: what
// a source call opens must reach its sink on every path, unless it
// leaves the function's custody first — returned, stored, captured by
// a closure or passed to another call — which hands the obligation to
// the receiver. Each function declaration and each function literal is
// its own unit (the engine opens resources inside pipeline produce
// closures). The resources are the rows of the resources table:
//
//   - a pooled engine.Batch (GetBatch, or a wrapper the summaries mark
//     as returning one) is recycled exactly once: a second recycle or a
//     use after recycle is reported — through aliases, across branch
//     merges and around loops — with the earlier recycle as witness,
//     and a batch that no path recycles or hands off leaks;
//   - a governor charge ((*governor.Quota).Acquire) must be released on
//     the same quota, amounts matched by identifier when both sides
//     name one, before any exit: a charge that may reach exit is
//     reported. The error branch of a checked Acquire is exempt (a
//     failed Acquire charges nothing), and a discarded Acquire error is
//     reported too: the latched kill must stop the caller there.
var PairFlow = &analysis.Analyzer{
	Name: "pairflow",
	Doc:  "pooled engine.Batch values must be recycled exactly once and every governor Quota charge released on all CFG paths, unless handed off; an Acquire error must not be discarded",
	Run:  runPairFlow,
}

// A resource is one row of the table PairFlow checks.
type resource struct {
	// source and sink recognize the calls that open and settle one.
	source, sink func(*analysis.Pass, *ast.CallExpr) bool
	// onRecv binds the resource to the source call's receiver and
	// amount, settled by a sink on the same receiver (a charge on a
	// quota); otherwise it is the value the source returns, settled by
	// passing it to a sink (a batch).
	onRecv bool
	// leak reports an unsettled resource (name, function). With double
	// and useAfter set the resource is exactly-once, and a leak is one
	// no path settles or hands off; otherwise it is one that may reach
	// the exit open.
	leak, double, useAfter string
	// discard, when set, reports a source whose error result is dropped.
	discard string
}

var resources = []resource{
	{
		source:   isBatchSource,
		sink:     isBatchSink,
		leak:     "pooled batch %s is never returned to the pool (PutBatch/RecycleChunk) and never escapes %s; every path leaks it",
		double:   "pooled batch %s may already be recycled (a recycle at line %d reaches this one); the pool would hand the same backing arrays to two scans",
		useAfter: "pooled batch %s may be used after being recycled (recycled on a path through line %d); the pool may have handed its arrays to another scan",
	},
	{
		source:  func(p *analysis.Pass, c *ast.CallExpr) bool { return quotaMethodRecv(p.TypesInfo, c, "Acquire") != nil },
		sink:    func(p *analysis.Pass, c *ast.CallExpr) bool { return quotaMethodRecv(p.TypesInfo, c, "Release") != nil },
		onRecv:  true,
		leak:    "charge from %s.Acquire may reach the exit of %s without a matching Release on some path; release it on every path, defer the release, or hand the quota off with the charged buffer",
		discard: "the error from %s.Acquire is discarded; a failed Acquire latches the query's kill and the caller must stop at this boundary",
	},
}

// governorPath and enginePath are the import-path suffixes of the
// packages owning the quota and pooled-batch primitives.
const (
	governorPath = "internal/engine/governor"
	enginePath   = "internal/engine"
)

func runPairFlow(pass *analysis.Pass) error {
	funcDecls(pass.Files, pass.Fset, func(fd *ast.FuncDecl) {
		checkUnit(pass, fd.Name.Name, fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				checkUnit(pass, fd.Name.Name+" (func literal)", lit.Body)
			}
			return true
		})
	})
	return nil
}

func checkUnit(pass *analysis.Pass, fname string, body *ast.BlockStmt) {
	var g *cfg.Graph
	for i := range resources {
		c := &pfChecker{pass: pass, r: &resources[i], fname: fname, cellOf: map[*ast.CallExpr]int{},
			recycleAt: map[int]int{}, settled: map[int]bool{}, reported: map[string]bool{}}
		c.register(body)
		if len(c.cells) == 0 {
			continue
		}
		if g == nil {
			g = cfg.New(body)
		}
		c.run(g)
	}
}

// Per-cell state bits: on a given path a cell may be open, already
// settled by its sink, or handed off.
const (
	stOpen = 1 << iota
	stSettled
	stEscaped
)

// pfState is the dataflow fact at a program point: which cells each
// tracked variable may name, and each cell's may-state.
type pfState struct {
	env  map[types.Object]map[int]bool
	bits map[int]uint8
}

func newPFState() *pfState {
	return &pfState{env: map[types.Object]map[int]bool{}, bits: map[int]uint8{}}
}

func (s *pfState) clone() *pfState {
	out := newPFState()
	for obj, cells := range s.env {
		cp := make(map[int]bool, len(cells))
		for c := range cells {
			cp[c] = true
		}
		out.env[obj] = cp
	}
	for c, b := range s.bits {
		out.bits[c] = b
	}
	return out
}

// union merges o into s, reporting change.
func (s *pfState) union(o *pfState) bool {
	changed := false
	for obj, cells := range o.env {
		have := s.env[obj]
		if have == nil {
			have = map[int]bool{}
			s.env[obj] = have
		}
		for c := range cells {
			if !have[c] {
				have[c] = true
				changed = true
			}
		}
	}
	for c, b := range o.bits {
		if s.bits[c]|b != s.bits[c] {
			s.bits[c] |= b
			changed = true
		}
	}
	return changed
}

// A pfCell is one source site.
type pfCell struct {
	pos     token.Pos
	name    string
	obj     types.Object   // onRecv: the receiver
	amt     types.Object   // onRecv: the amount, when it is an identifier
	errBody *ast.BlockStmt // the checked error branch, whose exits are exempt
}

// pfChecker runs one resource over one unit.
type pfChecker struct {
	pass  *analysis.Pass
	r     *resource
	fname string

	cells  []pfCell
	cellOf map[*ast.CallExpr]int
	// recycleAt remembers a witness sink line per cell for messages;
	// settled is the any-path "some sink or handoff reached it" fact.
	recycleAt map[int]int
	settled   map[int]bool

	report   bool
	reported map[string]bool
}

// register pre-collects every source site of the unit (not descending
// into function literals, which are their own units) so cell indices
// are stable across fixpoint iterations, and reports discarded errors
// on the way.
func (c *pfChecker) register(body *ast.BlockStmt) {
	walkStack(body, func(n ast.Node, stack []ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || !c.r.source(c.pass, call) || len(stack) == 0 {
			return true
		}
		cell := pfCell{pos: call.Pos()}
		if c.r.onRecv {
			recv := recvIdent(call)
			if cell.obj = c.objOf(recv); cell.obj == nil {
				return true
			}
			cell.name, cell.amt = recv.Name, c.amountOf(call)
		}
		var lhs *ast.Ident
		switch p := stack[len(stack)-1].(type) {
		case *ast.ExprStmt:
			c.discarded(call, cell.name)
		case *ast.AssignStmt:
			if len(p.Rhs) == 1 && p.Rhs[0] == call && len(p.Lhs) == 1 {
				lhs, _ = p.Lhs[0].(*ast.Ident)
			}
			if lhs != nil && lhs.Name == "_" {
				c.discarded(call, cell.name)
				lhs = nil
			}
			if lhs != nil && c.r.onRecv {
				cell.errBody = errBranchOf(c.pass.TypesInfo, p, lhs, stack)
			}
		}
		if !c.r.onRecv {
			if lhs == nil {
				return true // an unbound batch is its own expression's business
			}
			cell.pos, cell.name = lhs.Pos(), lhs.Name
		}
		c.cellOf[call] = len(c.cells)
		c.cells = append(c.cells, cell)
		return true
	})
}

func (c *pfChecker) discarded(call *ast.CallExpr, name string) {
	if c.r.discard != "" {
		c.pass.Reportf(call.Pos(), c.r.discard, name)
	}
}

// run solves the flow quietly, then replays every block once over the
// stable states with reporting on, then checks the exit.
func (c *pfChecker) run(g *cfg.Graph) {
	in := make([]*pfState, len(g.Blocks))
	for i := range in {
		in[i] = newPFState()
	}
	work := []*cfg.Block{g.Entry}
	seen := make([]bool, len(g.Blocks))
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		seen[blk.Index] = true
		out := in[blk.Index].clone()
		for _, n := range blk.Nodes {
			c.transfer(n, out)
		}
		for _, s := range blk.Succs {
			if in[s.Index].union(out) || !seen[s.Index] {
				work = append(work, s)
			}
		}
	}

	c.report = true
	for _, blk := range g.Blocks {
		st := in[blk.Index].clone()
		for _, n := range blk.Nodes {
			c.transfer(n, st)
		}
	}
	// A deferred call runs at exit: replay Defers LIFO there.
	exit := in[g.Exit.Index].clone()
	for i := len(g.Defers) - 1; i >= 0; i-- {
		c.walk(g.Defers[i].Call, exit)
	}
	for i, cell := range c.cells {
		leaks := exit.bits[i]&stOpen != 0
		if c.r.double != "" {
			leaks = !c.settled[i]
		}
		if leaks {
			c.pass.Reportf(cell.pos, c.r.leak, cell.name, c.fname)
		}
	}
}

// transfer applies one CFG node. A defer statement's call is not
// executed here; run replays it at exit.
func (c *pfChecker) transfer(n ast.Node, st *pfState) {
	if _, ok := n.(*ast.DeferStmt); ok {
		return
	}
	c.walk(n, st)
}

// walk visits n in source order, applying sources, sinks, exempt exits
// and every other appearance of a tracked value. Function literals are
// not descended into: what a closure captures is handed off to it.
func (c *pfChecker) walk(n ast.Node, st *pfState) {
	walkStack(n, func(sub ast.Node, stack []ast.Node) bool {
		switch x := sub.(type) {
		case *ast.FuncLit:
			ast.Inspect(x.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					c.escape(c.cellsOf(id, st), st)
				}
				return true
			})
			return false
		case *ast.DeferStmt:
			return sub == n
		case *ast.AssignStmt:
			c.assign(x, st)
		case *ast.CallExpr:
			c.call(x, st)
		case *ast.ReturnStmt:
			c.exempt(x, st)
		case *ast.Ident:
			c.use(x, st, stack)
		}
		return true
	})
}

// assign binds a batch source's result, aliases one tracked name to
// another, and kills the binding of a name rebound to anything else.
func (c *pfChecker) assign(as *ast.AssignStmt, st *pfState) {
	if len(as.Rhs) != 1 || len(as.Lhs) != 1 {
		return
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok || lhs.Name == "_" {
		return
	}
	obj := c.objOf(lhs)
	if obj == nil {
		return
	}
	if call, ok := as.Rhs[0].(*ast.CallExpr); ok && !c.r.onRecv {
		if cell, tracked := c.cellOf[call]; tracked {
			// (Re)acquisition: strong update — the name now means a fresh
			// value, whatever earlier iterations did with the old one.
			st.env[obj] = map[int]bool{cell: true}
			return
		}
	}
	if rhs, ok := ast.Unparen(as.Rhs[0]).(*ast.Ident); ok {
		if cells := c.cellsOf(rhs, st); cells != nil {
			cp := make(map[int]bool, len(cells))
			for cell := range cells {
				cp[cell] = true
			}
			st.env[obj] = cp
			return
		}
	}
	delete(st.env, obj)
}

// call applies a source (the cell opens) or a sink (its cells settle);
// panic in an error branch counts as that branch's exit.
func (c *pfChecker) call(call *ast.CallExpr, st *pfState) {
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
		c.exempt(call, st)
		return
	}
	if cell, ok := c.cellOf[call]; ok {
		st.bits[cell] = stOpen
		if obj := c.cells[cell].obj; obj != nil {
			if st.env[obj] == nil {
				st.env[obj] = map[int]bool{}
			}
			st.env[obj][cell] = true
		}
		return
	}
	if !c.r.sink(c.pass, call) {
		return
	}
	if c.r.onRecv {
		recv := recvIdent(call)
		amt := c.amountOf(call)
		for cell := range c.cellsOf(recv, st) {
			// Releasing outBytes does not settle flatBytes.
			if amt == nil || c.cells[cell].amt == nil || amt == c.cells[cell].amt {
				c.settle(cell, call, recv.Name, st)
			}
		}
		return
	}
	for _, arg := range call.Args {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
			for cell := range c.cellsOf(id, st) {
				c.settle(cell, call, id.Name, st)
			}
		}
	}
}

func (c *pfChecker) settle(cell int, call *ast.CallExpr, name string, st *pfState) {
	if c.r.double != "" && st.bits[cell]&(stSettled|stEscaped) == stSettled {
		c.reportf(call.Pos(), "double", c.r.double, name, c.recycleAt[cell])
	}
	st.bits[cell] = stSettled
	c.settled[cell] = true
	if _, have := c.recycleAt[cell]; !have {
		c.recycleAt[cell] = c.pass.Fset.Position(call.Pos()).Line
	}
}

// exempt closes cells whose error-check branch lexically contains this
// exit: on that path the source failed and opened nothing.
func (c *pfChecker) exempt(n ast.Node, st *pfState) {
	for i, cell := range c.cells {
		if cell.errBody != nil && cell.errBody.Pos() <= n.Pos() && n.Pos() <= cell.errBody.End() {
			st.bits[i] &^= stOpen
		}
	}
}

// use classifies one appearance of a tracked name outside the source
// binding (assign) and the sink's own arguments (call). A field read,
// a method call and an alias are uses; a field or element store, a
// call argument, a return, a composite literal or a channel send hands
// the value off.
func (c *pfChecker) use(id *ast.Ident, st *pfState, stack []ast.Node) {
	cells := c.cellsOf(id, st)
	if cells == nil || len(stack) == 0 {
		return
	}
	switch p := stack[len(stack)-1].(type) {
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == id {
				return // binding, handled by assign
			}
		}
		if len(p.Lhs) == 1 {
			if _, alias := p.Lhs[0].(*ast.Ident); alias {
				c.checkUse(id, cells, st)
				return
			}
		}
	case *ast.SelectorExpr:
		if p.X == id {
			c.checkUse(id, cells, st)
		}
		return
	case *ast.CallExpr:
		if ast.Unparen(p.Fun) == id || c.r.sink(c.pass, p) {
			return
		}
	}
	c.checkUse(id, cells, st)
	c.escape(cells, st)
}

func (c *pfChecker) checkUse(id *ast.Ident, cells map[int]bool, st *pfState) {
	if c.r.useAfter == "" {
		return
	}
	for cell := range cells {
		if st.bits[cell]&(stSettled|stEscaped) == stSettled {
			c.reportf(id.Pos(), "use", c.r.useAfter, id.Name, c.recycleAt[cell])
		}
	}
}

func (c *pfChecker) escape(cells map[int]bool, st *pfState) {
	for cell := range cells {
		st.bits[cell] = st.bits[cell]&^stOpen | stEscaped
		c.settled[cell] = true
	}
}

func (c *pfChecker) cellsOf(id *ast.Ident, st *pfState) map[int]bool {
	if obj := c.objOf(id); obj != nil {
		return st.env[obj]
	}
	return nil
}

func (c *pfChecker) objOf(id *ast.Ident) types.Object {
	if id == nil {
		return nil
	}
	return infoObj(c.pass.TypesInfo, id)
}

// amountOf is the object a single-identifier argument names, or nil.
func (c *pfChecker) amountOf(call *ast.CallExpr) types.Object {
	if len(call.Args) == 1 {
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			return c.objOf(id)
		}
	}
	return nil
}

// reportf reports once per (kind, position), and only during the
// reporting pass — the fixpoint runs quietly.
func (c *pfChecker) reportf(pos token.Pos, kind, format string, args ...any) {
	key := fmt.Sprintf("%s@%d", kind, pos)
	if !c.report || c.reported[key] {
		return
	}
	c.reported[key] = true
	c.pass.Reportf(pos, format, args...)
}

// errBranchOf finds the error-check branch of a checked source: the
// `if err := q.Acquire(n); err != nil { ... }` init form, or the
// two-statement `err := q.Acquire(n)` / `if err != nil { ... }` form.
func errBranchOf(info *types.Info, as *ast.AssignStmt, lhs *ast.Ident, stack []ast.Node) *ast.BlockStmt {
	errObj := infoObj(info, lhs)
	if errObj == nil || len(stack) < 2 {
		return nil
	}
	switch gp := stack[len(stack)-2].(type) {
	case *ast.IfStmt:
		if gp.Init == as && condIsErrNotNil(info, gp.Cond, errObj) {
			return gp.Body
		}
	case *ast.BlockStmt:
		for i, s := range gp.List {
			if s != ast.Stmt(as) || i+1 >= len(gp.List) {
				continue
			}
			if ifs, ok := gp.List[i+1].(*ast.IfStmt); ok && ifs.Init == nil &&
				condIsErrNotNil(info, ifs.Cond, errObj) {
				return ifs.Body
			}
		}
	}
	return nil
}

// condIsErrNotNil matches `err != nil` (either operand order) against
// the given error object.
func condIsErrNotNil(info *types.Info, cond ast.Expr, errObj types.Object) bool {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || be.Op != token.NEQ {
		return false
	}
	x, y := be.X, be.Y
	if isNil(info, x) {
		x, y = y, x
	}
	id, ok := ast.Unparen(x).(*ast.Ident)
	return ok && isNil(info, y) && infoObj(info, id) == errObj
}

// quotaMethodRecv reports whether call invokes the named method on a
// governor Quota receiver, returning the receiver identifier (nil when
// it is not a plain name — such receivers are not tracked).
func quotaMethodRecv(info *types.Info, call *ast.CallExpr, name string) *ast.Ident {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Name() != name {
		return nil
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil
	}
	named := namedOf(sig.Recv().Type())
	if named == nil || named.Obj().Name() != "Quota" || !pkgPathHasSuffix(named.Obj().Pkg(), governorPath) {
		return nil
	}
	return recvIdent(call)
}

// recvIdent is the plain-identifier receiver of a method call, or nil.
func recvIdent(call *ast.CallExpr) *ast.Ident {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		id, _ := ast.Unparen(sel.X).(*ast.Ident)
		return id
	}
	return nil
}

// isBatchSource reports a call handing out a pooled batch:
// engine.GetBatch or a wrapper whose summary says it returns one.
func isBatchSource(pass *analysis.Pass, call *ast.CallExpr) bool {
	if isFuncNamed(pass.TypesInfo, call, enginePath, "GetBatch") {
		return true
	}
	fs := calleeSummary(pass, call)
	return fs != nil && fs.ReturnsBatch
}

// isBatchSink reports a call recycling a pooled batch: the engine
// primitives or a wrapper whose summary recycles a parameter.
func isBatchSink(pass *analysis.Pass, call *ast.CallExpr) bool {
	if isFuncNamed(pass.TypesInfo, call, enginePath, "PutBatch") ||
		isFuncNamed(pass.TypesInfo, call, enginePath, "RecycleChunk") {
		return true
	}
	fs := calleeSummary(pass, call)
	return fs != nil && len(fs.RecyclesParam) > 0
}

// infoObj resolves an identifier to its object through either Uses or
// Defs.
func infoObj(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}
