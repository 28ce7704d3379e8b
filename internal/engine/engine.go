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
// streams; partial aggregates and tallies for Aggregate and Precision,
// and group tables for GroupBy, all three folds over the parts barrier
// with one per-task scan body, scanPart.batches, beside the kernels'
// exact-bounds arms). Partials merge deterministically —
// per-morsel outputs concatenate in morsel order, so Select results
// stay in insertion order and aggregates are exact at every worker
// count. One knob governs the whole engine: SetParallelism(0) (auto)
// uses GOMAXPROCS workers for scans of at least one maximum-stride
// morsel (1 Mi rows at the default block size) and one worker below
// it, where attaching workers and merging costs more than a
// near-roofline scan saves; SetParallelism(1) is one worker; n > 1
// asks for n, capped at the pool's width.
//
// There is one dispatcher and one entry per operator. Every barrier —
// Aggregate, Precision and GroupBy over a scan's parts, the join's build
// and probe, and through ForEachTask the SQL sort runs — hands its
// steps to run (parallel.go): one worker loops inline on the caller,
// more attach to the worker pool as one sched query of that width which
// the caller drives alongside the pool's workers (Attach + Wait). The pool is the
// only place engine work runs; an unset one is sched.Default(). Before
// every step run checks the Exec's context and the query's governor
// quota, so every operator stops at its next morsel once the request
// is cancelled, over budget or past its deadline. Every stream runs
// through runPipeline (pipeline.go), whose steps are queries of the
// same pool that nobody Waits on: the consumer blocks on a channel
// instead. A materialized scan is Collect() of its stream — Select,
// partition.Set.Select, the join's sides, SQL's ORDER BY — flattened
// once by Flatten. The one rule between the two drivers: no stream is
// collected inside a pool step, where its consumer would block a pool
// worker on a producer nobody is obliged to run; a barrier may run
// there, since it drives its own morsels.
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
// (see its doc). A scan may span several tables, internal/partition's
// shards: SelectPartsChunkStream claims their morsels one part after
// another in one pipeline, and AggregateParts and PrecisionParts run
// every part's morsels as one barrier's task list, as GroupBy runs its
// one table's. JoinPrecision is one ScanAll join whose pairs are split
// by the two sides' active bitmaps. SQL's ORDER BY sorts morsel-sized
// runs through ForEachTask before a k-way merge.
//
// Narrow ranges take a second access path (index.go): when a column's
// value-order index (internal/column) puts a predicate's candidates at
// one batch or less, a stream and a barrier run that part as one unit
// of work through their usual dispatcher, with the same rows, order and
// touches as the morsel scan.
//
// Executors are safe for concurrent readers: scans take no locks and
// share no mutable state, and the access-frequency touches feeding
// query-based amnesia (§3.2) go through the table's internally
// synchronized flushes: one TouchMany per stream part — covering the
// rows its emitter handed over, so a LIMIT pushed down with WithLimit
// touches exactly the rows returned — one TouchRange per block an
// exact-bounds aggregate or Precision folds, and one TouchMany per batch
// any other fold takes in: GroupBy's, an inexact aggregate's, an index
// task's. A touch stripe is never held across a morsel or a scan.
package engine

import (
	"context"
	"errors"
	"math"
	"slices"

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
// scan mode: SelectChunkStream under the executor's context, collected
// and flattened once. The stream's touches are the Select's, one
// TouchMany of the rows it returned.
func (e *Exec) Select(col string, pred expr.Expr, mode ScanMode) (*Result, error) {
	s, err := e.SelectChunkStream(e.ctx, col, pred, mode)
	if err != nil {
		return nil, err
	}
	chunks, err := s.Collect()
	if err != nil {
		return nil, err
	}
	return Flatten(chunks), nil
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

	// batch is the pooled batch Rows and Values came from, which
	// RecycleChunk puts back; nil for a chunk no scan produced. quota,
	// when non-nil, holds the per-query resource account the batch is
	// charged against; RecycleChunk releases the charge with it. Copies
	// of the chunk carry both, so whichever copy is recycled settles
	// them.
	batch *Batch
	quota *governor.Quota
}

// Flatten concatenates collected scan chunks into an exactly-sized
// Result, in chunk order, and recycles their buffers.
func Flatten(chunks []SelChunk) *Result {
	total := 0
	for _, c := range chunks {
		total += len(c.Values)
	}
	res := &Result{}
	if total > 0 {
		res.Rows = make([]int32, 0, total)
		res.Values = make([]int64, 0, total)
		for _, c := range chunks {
			res.Rows = append(res.Rows, c.Rows...)
			res.Values = append(res.Values, c.Values...)
		}
	}
	recycleChunks(chunks)
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
// satisfying pred under the given scan mode: AggregateParts over e's
// table alone.
func (e *Exec) Aggregate(col string, pred expr.Expr, mode ScanMode) (*AggResult, error) {
	return e.AggregateParts([]*table.Table{e.t}, col, pred, mode)
}

// AggregateParts computes COUNT/SUM/AVG/MIN/MAX of column col over the
// tuples of tables satisfying pred under the given scan mode in one
// fused barrier over every part's tasks (see barrier). Exact-bounds
// predicates fold straight from the column kernel's qualifying masks;
// inexact ones run the filter pipeline and fold its batches. Sums,
// counts and min/max are order-independent over int64, so per-worker
// partials merge to the same aggregate at every parallelism. On the
// feedback path a morsel folds one TouchBlock-row block at a time
// inside its part's Table.TouchRange, so the kernel increments the
// access counts of exactly the rows a Select would touch in the loop
// that folds them; an inexact predicate's batches, and an index task's
// (see scanPart.batches), go through TouchMany. It returns ErrNoRows
// when no tuple qualifies.
func (e *Exec) AggregateParts(tables []*table.Table, col string, pred expr.Expr, mode ScanMode) (*AggResult, error) {
	parts, err := newParts(tables, col, pred, mode)
	if err != nil {
		return nil, err
	}
	agg, _, err := e.aggregate(parts, pred, e.touch && mode == ScanActive, false)
	if err != nil {
		return nil, err
	}
	if agg.Rows == 0 {
		return nil, ErrNoRows
	}
	agg.Avg = float64(agg.Sum) / float64(agg.Rows)
	return agg, nil
}

// aggregate is AggregateParts' fold over planned parts, touching the
// rows it folds when touching is set; Avg is left to the caller. With
// all set, every task also counts the rows pred matches among all
// stored tuples of its range (see countAll) — Precision's ScanAll pass
// over the same tasks — and aggregate returns their total.
func (e *Exec) aggregate(parts []scanPart, pred expr.Expr, touching, all bool) (*AggResult, int, error) {
	lo, hi, exact := pred.Bounds()
	workers, short := e.scanWorkers(parts)
	partials := make([]struct {
		agg AggResult
		all int
	}, workers)
	for i := range partials {
		partials[i].agg.Min, partials[i].agg.Max = math.MaxInt64, math.MinInt64
	}
	err := e.barrier(parts, workers, short, func(w int, p scanPart, r rowRange) {
		a := &partials[w].agg
		switch {
		case !exact || p.cur.index != nil:
			p.batches(pred, p.active, r, func(sel []int32, val []int64) {
				a.foldValues(val)
				if touching {
					p.t.TouchMany(sel)
				}
			})
		case touching:
			for bs := r.start; bs < r.end; {
				be := min((bs/table.TouchBlock+1)*table.TouchBlock, r.end)
				p.t.TouchRange(bs, be, func(counts []uint32) {
					a.fold(p.c.AggregateRangeIn(lo, hi, p.active, bs, be, counts))
				})
				bs = be
			}
		default:
			a.fold(p.c.AggregateRangeIn(lo, hi, p.active, r.start, r.end, nil))
		}
		if all {
			partials[w].all += p.countAll(pred, r)
		}
	})
	if err != nil {
		return nil, 0, err
	}
	agg, n := &partials[0].agg, partials[0].all
	for _, p := range partials[1:] {
		agg.fold(p.agg.Rows, p.agg.Sum, p.agg.Min, p.agg.Max)
		n += p.all
	}
	return agg, n, nil
}

// countAll returns how many stored tuples of task r of the part pred
// matches, forgotten ones included (ScanAll), without folding them: the
// counting kernel for exact bounds, the task's batches otherwise.
func (p scanPart) countAll(pred expr.Expr, r rowRange) int {
	if lo, hi, exact := pred.Bounds(); exact && p.cur.index == nil {
		return p.c.CountRangeIn(lo, hi, nil, r.start, r.end)
	}
	n := 0
	p.batches(pred, nil, r, func(sel []int32, _ []int64) { n += len(sel) })
	return n
}

// Precision runs pred in both scan modes over e's table and returns
// RF(Q), MF(Q) and PF(Q): PrecisionParts over e's table alone.
func (e *Exec) Precision(col string, pred expr.Expr) (rf, mf int, pf float64, err error) {
	return e.PrecisionParts([]*table.Table{e.t}, col, pred)
}

// PrecisionParts runs pred in both scan modes over tables and returns
// RF(Q) (active matches), MF(Q) (matches lost to amnesia among stored
// tuples), and the query precision PF(Q) = RF/(RF+MF) as defined in
// §2.3, in one barrier. RF is the parts aggregate's row count under
// ScanActive, so a touching executor touches exactly what Select
// would, through the fold, and nothing is materialized; the same tasks
// count every stored match with the counting kernel, and MF is the
// difference. When the query range is empty in both modes, precision
// is reported as 1 (nothing was asked for, nothing was missed).
func (e *Exec) PrecisionParts(tables []*table.Table, col string, pred expr.Expr) (rf, mf int, pf float64, err error) {
	parts, err := newParts(tables, col, pred, ScanActive)
	if err != nil {
		return 0, 0, 0, err
	}
	agg, all, err := e.aggregate(parts, pred, e.touch, true)
	if err != nil {
		return 0, 0, 0, err
	}
	rf, mf = agg.Rows, all-agg.Rows
	if all == 0 {
		return 0, 0, 1, nil
	}
	return rf, mf, float64(rf) / float64(all), nil
}
