// Package engine executes queries against tables while honouring the
// active/forgotten distinction that defines a database with amnesia.
//
// Execution is vectorized and mask-first: the column kernels compute,
// per 64-row bitmap word, the mask of rows inside the predicate's
// bounding interval and still active (see internal/column), and every
// operator is a consumer of those masks. Selections emit them as
// fixed-size batches (BatchSize tuples) — a Batch pairs a selection
// vector of tuple positions with the parallel value vector, and
// expr.Filter compacts it in place for bounds-inexact predicates.
// Counts are popcounts. Aggregates fold count/sum/min/max straight from
// the masks with no batch in between and, in the same loop, increment
// the access counts of the rows they fold — their access-frequency
// feedback — one block at a time under Table.TouchRange. Scratch
// batches come from a pool, so steady-state scans allocate only their
// output.
//
// Two scan modes mirror the paper's §1 discussion of what happens to
// forgotten data: ScanActive skips forgotten tuples (the "stop indexing"
// fate — fast path, incomplete answers), while ScanAll fetches everything
// still physically present (a "complete scan will fetch all data").
// Running the same query in both modes is how the simulator computes the
// precision metrics of §2.3 without a reference database.
//
// Scans are morsel-driven in the Leis et al. sense: the column's block
// range is carved into morsels of MorselBlocks zone-mapped blocks, and
// steps pull morsel indices from a shared atomic counter, each running
// the same ScanBatchRange/Filter pipeline over its morsel with worker-local
// pooled batches and worker-local partial states (chunk lists for
// Select, partial aggregates for Aggregate, group tables for GroupBy,
// tallies for counting). Partials merge deterministically — per-morsel
// outputs concatenate in morsel order, so Select results stay in
// insertion order and aggregates are exact at every worker count. One
// knob governs the whole engine: SetParallelism(0) (auto) uses
// GOMAXPROCS workers for scans of at least one maximum-stride morsel
// (1 Mi rows at the default block size) and one worker below it, where
// attaching workers and merging costs more than a near-roofline scan
// saves; SetParallelism(1) is one worker; n > 1 asks for n, capped at
// the pool's width.
//
// There is one dispatcher and one entry per operator. Every barrier —
// Select, Aggregate, counting, GroupBy, the join's build and probe, and
// through ForEachTask the SQL sort runs and the partition layer's shard
// fan-outs — hands its steps to run (parallel.go): one worker loops
// inline on the caller, more attach to the worker pool as one sched
// query of that width which the caller drives alongside the pool's
// workers (Attach + Wait). The pool is the only place engine work runs;
// an unset one is sched.Default(). Before every step run checks the
// Exec's context and the query's governor quota, so every operator
// stops at its next morsel once the request is cancelled, over budget
// or past its deadline. Every stream runs through runPipeline
// (pipeline.go), whose steps are queries of the same pool that nobody
// Waits on: the consumer blocks on a channel instead. That is why the
// two drivers stay apart and why Select is not Collect() of
// SelectChunkStream: a barrier may run inside another query's pool step
// (a shard's Aggregate or Precision inside a partitioned fan-out), where
// it must drive its own morsels; a stream consumer there would block a
// pool worker on a producer nobody is obliged to run.
// Materialized-is-Collect-of-the-stream applies where the caller is not
// a pool step (partition.Set.Select, SQL's ORDER BY).
//
// Scans are also pipelined (see pipeline.go): SelectChunkStream's
// workers push qualifying chunks into a bounded channel, in order,
// while later morsels are still scanning — the consumer's first chunk
// costs one morsel, not one scan, backpressure bounds in-flight
// memory, and a cancelled context tears the workers down. Morsel
// sizing is adaptive on the chunked paths: the cursor starts at
// MorselBlocks, doubles its stride (capped) after every morsel that
// qualifies at most one batch and halves it after a denser one — keyed
// on output alone, a function of data and predicate, never on wall
// time; claimed ranges stay contiguous and merge in claim order, so
// every stride produces byte-identical output.
//
// HashJoin rides the same dispatchers end to end, build-while-collect
// (see its doc). A stream may span several tables: SelectPartsChunkStream
// scans internal/partition's shards as the parts of one pipeline, their
// morsels claimed one part after another, while the partition layer's
// Aggregate and Precision fan out per shard through ForEachTask. SQL's
// ORDER BY sorts morsel-sized runs through ForEachTask before a k-way
// merge.
//
// Narrow ranges take a second access path (index.go): when a column's
// value-order index (internal/column) puts a predicate's candidates at
// one batch or less, Select, SelectChunkStream and Aggregate run the
// scan as one unit of work through their usual dispatcher, with the
// same rows, order and touches as the morsel scan.
//
// Executors are safe for concurrent readers: scans take no locks and
// share no mutable state, and the access-frequency touches feeding
// query-based amnesia (§3.2) go through the table's internally
// synchronized flushes: one TouchMany per Select or stream part — a
// stream's cover the rows its emitter handed over, so a LIMIT pushed
// down with WithLimit touches exactly the rows returned — and one
// TouchRange per block an aggregate folds. A touch stripe is never held
// across a morsel or a scan.
package engine

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"

	"amnesiadb/internal/bitvec"
	"amnesiadb/internal/engine/governor"
	"amnesiadb/internal/engine/sched"
	"amnesiadb/internal/expr"
	"amnesiadb/internal/table"
)

// ScanMode selects which tuples a query sees.
type ScanMode int

const (
	// ScanActive evaluates the query over active tuples only. This is
	// the normal operating mode of a database with amnesia.
	ScanActive ScanMode = iota
	// ScanAll evaluates the query over every tuple still stored,
	// including forgotten ones. The paper allows this as an explicit,
	// slow "complete scan" escape hatch and the metrics layer uses it
	// as ground truth.
	ScanAll
)

// String returns a short label for the mode.
func (m ScanMode) String() string {
	if m == ScanAll {
		return "all"
	}
	return "active"
}

// ErrNoRows is returned by aggregate queries whose qualifying set is empty.
var ErrNoRows = errors.New("engine: aggregate over empty row set")

// Result is the output of a selection query.
type Result struct {
	// Rows holds the positions of qualifying tuples in insertion order.
	Rows []int32
	// Values holds the attribute values of those tuples.
	Values []int64
}

// Count returns the number of qualifying tuples, RF(Q) in the paper when
// run under ScanActive.
func (r *Result) Count() int { return len(r.Rows) }

// Exec is a query executor bound to one table, and the execution
// context of its operators: table binding, touch flag, parallelism
// knob, worker pool and cancellation context. The zero value is
// unusable; construct with New. An Exec holds no per-query state beyond
// that configuration, so one executor may serve any number of
// concurrent read-only queries; a request derives its own cancellable
// copy with WithContext, and a streamed LIMIT its own with WithLimit.
type Exec struct {
	t     *table.Table
	touch bool
	// par is the intra-query parallelism knob; see SetParallelism.
	par int
	// sched is the worker pool the operators' steps run on; nil means
	// sched.Default(). See SetScheduler.
	sched *sched.Pool
	// ctx stops the operators at morsel boundaries; see WithContext.
	ctx context.Context
	// limit caps SelectChunkStream's output; see WithLimit.
	limit int
}

// New returns an executor for t that records access frequencies (Touch)
// for tuples returned by ScanActive selections — the feedback loop
// query-based amnesia (§3.2) depends on.
func New(t *table.Table) *Exec {
	e := NewSilent(t)
	e.touch = true
	return e
}

// NewSilent returns an executor that does not update access frequencies.
// Metric ground-truth scans use it so that measuring precision does not
// perturb rot-style strategies.
func NewSilent(t *table.Table) *Exec {
	//lint:ignore ctxflow the constructors are the engine's ctx-less entry: an Exec is uncancellable until a request derives its own with WithContext.
	return &Exec{t: t, ctx: context.Background()}
}

// Table returns the executor's table.
func (e *Exec) Table() *table.Table { return e.t }

// Select returns the tuples of column col satisfying pred under the given
// scan mode. The result accumulates batch by batch; the touched-row
// feedback is flushed once at the end of the scan.
func (e *Exec) Select(col string, pred expr.Expr, mode ScanMode) (*Result, error) {
	return e.selectTouching(col, pred, mode, e.touch)
}

// selectTouching is Select with an explicit touch decision, so internal
// callers (Aggregate, GroupBy, Precision ground truth) control the
// feedback without mutating shared executor state.
func (e *Exec) selectTouching(col string, pred expr.Expr, mode ScanMode, touch bool) (*Result, error) {
	p, err := newPart(e.t, col, pred, mode)
	if err != nil {
		return nil, err
	}
	// The scan kernel fills pooled batches (morsel-parallel past the
	// threshold); the chunks are then merged once into an exactly-sized
	// result. One pass over the data, no append-doubling churn.
	chunks, err := e.collectAll(p, pred)
	if err != nil {
		return nil, err
	}
	res := mergeChunks(chunks)
	if touch && mode == ScanActive {
		e.t.TouchMany(res.Rows)
	}
	return res, nil
}

// SelChunk is one batch-sized piece of a chunked selection: qualifying
// tuple positions and the parallel attribute values, in insertion order
// within and across chunks. Positions are local to the table of the part
// the chunk came from (see SelectPartsChunkStream). The caller owns the
// slices.
type SelChunk struct {
	Rows   []int32
	Values []int64

	// part indexes the scan part whose table Rows belong to; the
	// emitter groups touches by it.
	part int

	// quota, when non-nil, holds the per-query resource account this
	// chunk's pooled buffers are charged against; RecycleChunk releases
	// the charge when the buffers return to the pool. Copies of the
	// chunk carry the stamp, so whichever copy is recycled settles it.
	quota *governor.Quota
}

// collectAll runs the scan pipeline over the whole column as one barrier
// and returns the qualifying rows as truncated pooled batches in
// insertion order. Steps pull adaptively sized morsels (see
// adaptiveMorsels): each claimed range fills its own chunk-list slot
// keyed by claim sequence, and the flattening walks the slots in claim
// order — claims are contiguous and ascending, so rows stay in
// insertion order, byte-identical at every stride and worker count. A
// cancelled scan hands its batches back to the pool.
func (e *Exec) collectAll(p scanPart, pred expr.Expr) ([]*Batch, error) {
	parts := []scanPart{p}
	workers, short := e.scanWorkers(parts)
	cur := &partCursor{parts: parts}
	var mu sync.Mutex
	var slots [][]*Batch
	err := run(e.ctx, e.sched, workers, short, func(int) bool {
		task, seq, ok := cur.claim()
		if !ok {
			return false
		}
		cs := p.scan(pred, task.r)
		mu.Lock()
		for len(slots) <= seq {
			slots = append(slots, nil)
		}
		slots[seq] = cs
		mu.Unlock()
		return true
	})
	p.recordStride()
	var flat []*Batch
	for _, cs := range slots {
		flat = append(flat, cs...)
	}
	if err != nil {
		for _, b := range flat {
			PutBatch(b)
		}
		return nil, err
	}
	return flat, nil
}

// mergeChunks concatenates scan chunks into an exactly-sized Result and
// recycles the batches. When the scan produced exactly one chunk, its
// buffers are handed to the Result directly — ownership moves out of the
// pool, the pool replaces the batch on demand — so small scans skip the
// concatenation copy entirely.
func mergeChunks(chunks []*Batch) *Result {
	if len(chunks) == 1 {
		b := chunks[0]
		return &Result{Rows: b.Sel, Values: b.Val}
	}
	total := 0
	for _, b := range chunks {
		total += len(b.Sel)
	}
	res := &Result{}
	if total > 0 {
		res.Rows = make([]int32, 0, total)
		res.Values = make([]int64, 0, total)
		for _, b := range chunks {
			res.Rows = append(res.Rows, b.Sel...)
			res.Values = append(res.Values, b.Val...)
		}
	}
	for _, b := range chunks {
		PutBatch(b)
	}
	return res
}

// AggKind enumerates the aggregate functions of §2.2.
type AggKind int

// Aggregate functions.
const (
	Count AggKind = iota
	Sum
	Avg
	Min
	Max
)

// String returns the SQL name of the aggregate.
func (k AggKind) String() string {
	switch k {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	default:
		return "AGG?"
	}
}

// AggResult carries every aggregate so one scan serves any AggKind.
type AggResult struct {
	Rows int
	Sum  int64
	Min  int64
	Max  int64
	Avg  float64
}

// fold merges a partial aggregate into a. An empty partial is
// (0, 0, MaxInt64, MinInt64), so merging needs no special case.
func (a *AggResult) fold(rows int, sum, lo, hi int64) {
	a.Rows += rows
	a.Sum += sum
	a.Min = min(a.Min, lo)
	a.Max = max(a.Max, hi)
}

// foldValues merges a non-empty batch of qualifying values into a.
func (a *AggResult) foldValues(val []int64) {
	var sum int64
	for _, v := range val {
		sum += v
	}
	a.fold(len(val), sum, slices.Min(val), slices.Max(val))
}

// Value returns the requested aggregate as a float64.
func (a *AggResult) Value(k AggKind) float64 {
	switch k {
	case Count:
		return float64(a.Rows)
	case Sum:
		return float64(a.Sum)
	case Avg:
		return a.Avg
	case Min:
		return float64(a.Min)
	case Max:
		return float64(a.Max)
	default:
		panic("engine: invalid aggregate kind")
	}
}

// Aggregate computes COUNT/SUM/AVG/MIN/MAX of column col over tuples
// satisfying pred under the given scan mode in one fused pass over the
// morsels — inline for one worker, morsel-parallel past the threshold,
// the same loop either way. Exact-bounds predicates fold straight from
// the column kernel's qualifying masks; inexact ones run the filter
// pipeline and fold its batches. Sums, counts and min/max are
// order-independent over int64, so per-worker partials merge to the
// same aggregate at every parallelism. On the feedback path a morsel
// folds one TouchBlock-row block at a time inside Table.TouchRange, so
// the kernel increments the access counts of exactly the rows a Select
// would touch in the loop that folds them, holding one stripe for one
// block; an inexact predicate's batches go through TouchMany. A narrow
// predicate the column's value-order index answers (see planIndex) is
// one task instead, folding the plan's batches and touching their
// positions. It returns ErrNoRows when no tuple qualifies.
func (e *Exec) Aggregate(col string, pred expr.Expr, mode ScanMode) (*AggResult, error) {
	c, err := e.t.Column(col)
	if err != nil {
		return nil, err
	}
	var active *bitvec.Vector
	if mode == ScanActive {
		active = e.t.Active()
	}
	touching := e.touch && mode == ScanActive
	lo, hi, exact := pred.Bounds()
	rowsPer, nm := morselGeometry(c)
	workers := e.workersFor(c.Len())
	index, indexed := planIndex(c, pred)
	if indexed {
		workers, nm = 1, 1
	}
	partials := make([]AggResult, workers)
	for i := range partials {
		partials[i].Min, partials[i].Max = math.MaxInt64, math.MinInt64
	}
	err = ForEachTask(e.ctx, e.sched, workers, nm, func(w, m int) {
		p := &partials[w]
		if indexed {
			for _, b := range index.scan(c, pred, active) {
				p.foldValues(b.Val)
				if touching {
					e.t.TouchMany(b.Sel)
				}
				PutBatch(b)
			}
			return
		}
		start, end := m*rowsPer, min((m+1)*rowsPer, c.Len())
		switch {
		case !exact:
			scanMorselBatches(c, lo, hi, exact, pred, active, start, end, func(sel []int32, val []int64) {
				p.foldValues(val)
				if touching {
					e.t.TouchMany(sel)
				}
			})
		case touching:
			for bs := start; bs < end; {
				be := min((bs/table.TouchBlock+1)*table.TouchBlock, end)
				e.t.TouchRange(bs, be, func(counts []uint32) {
					p.fold(c.AggregateRangeIn(lo, hi, active, bs, be, counts))
				})
				bs = be
			}
		default:
			p.fold(c.AggregateRangeIn(lo, hi, active, start, end, nil))
		}
	})
	if err != nil {
		return nil, err
	}
	agg := &partials[0]
	for _, p := range partials[1:] {
		agg.fold(p.Rows, p.Sum, p.Min, p.Max)
	}
	if agg.Rows == 0 {
		return nil, ErrNoRows
	}
	agg.Avg = float64(agg.Sum) / float64(agg.Rows)
	return agg, nil
}

// Precision runs pred in both scan modes and returns RF(Q) (active
// matches), MF(Q) (matches lost to amnesia among stored tuples), and the
// query precision PF(Q) = RF/(RF+MF) as defined in §2.3. The ground-truth
// pass reuses the batch pipeline in counting mode, so it materializes
// nothing; on a silent executor the active pass counts too, since no
// touch feedback is owed — simulator precision sweeps then allocate
// nothing at all. When the query range is empty in both modes,
// precision is reported as 1 (nothing was asked for, nothing was
// missed).
func (e *Exec) Precision(col string, pred expr.Expr) (rf, mf int, pf float64, err error) {
	c, err := e.t.Column(col)
	if err != nil {
		return 0, 0, 0, err
	}
	if e.touch {
		act, err := e.Select(col, pred, ScanActive)
		if err != nil {
			return 0, 0, 0, err
		}
		rf = act.Count()
	} else if rf, err = e.countMatches(c, pred, ScanActive); err != nil {
		return 0, 0, 0, err
	}
	all, err := e.countMatches(c, pred, ScanAll)
	if err != nil {
		return 0, 0, 0, err
	}
	mf = all - rf
	if rf+mf == 0 {
		return 0, 0, 1, nil
	}
	return rf, mf, float64(rf) / float64(rf+mf), nil
}
