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
// the masks with no batch in between and hand the same masks to
// Table.TouchMask as their access-frequency feedback, one morsel at a
// time. Scratch batches come from a pool, so steady-state scans
// allocate only their output.
//
// Two scan modes mirror the paper's §1 discussion of what happens to
// forgotten data: ScanActive skips forgotten tuples (the "stop indexing"
// fate — fast path, incomplete answers), while ScanAll fetches everything
// still physically present (a "complete scan will fetch all data").
// Running the same query in both modes is how the simulator computes the
// precision metrics of §2.3 without a reference database.
//
// Large scans are additionally parallel *within* one query,
// morsel-driven in the Leis et al. sense: the column's block range is
// carved into morsels of MorselBlocks zone-mapped blocks, and worker
// goroutines pull morsel indices from a shared atomic counter, each
// running the same ScanBatch/Filter pipeline over its morsel with
// worker-local pooled batches and worker-local partial states (chunk
// lists for Select, partial aggregates for Aggregate, group tables for
// GroupBy, tallies for counting). Partials merge deterministically —
// per-morsel outputs concatenate in morsel order, so Select results
// stay in insertion order and aggregates equal their serial values
// exactly. One knob governs the whole engine: SetParallelism(0) (auto)
// uses GOMAXPROCS workers for scans of at least one maximum-stride
// morsel (1 Mi rows at the default block size) and stays serial below
// it, where attaching workers and merging costs more than a
// near-roofline scan saves; SetParallelism(1) forces serial; n > 1
// forces n workers. Serial is never a second code path: it is the
// morsel loop run inline by one worker.
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
// HashJoin rides the same scheduler end to end, build-while-collect:
// both sides' collections stream concurrently, the side predicted
// smaller scatters into radix partitions as its chunks arrive (chunk
// arrival order keeps each key's match list in build order) with one
// worker building each partition's hash map, and the probe runs
// morsel-parallel over the collected probe vector with per-morsel
// output slots concatenated in probe order — so the parallel join is
// byte-identical to the serial one. Cross-shard parallelism follows
// the same shape one level up: internal/partition fans a query's
// per-shard scans out concurrently (a shard is the morsel), and SQL's
// ORDER BY sorts morsel-sized runs in parallel before a k-way merge.
//
// Executors are safe for concurrent readers: scans take no locks and
// share no mutable state, and the access-frequency touches feeding
// query-based amnesia (§3.2) go through the table's internally
// synchronized flushes: selections accumulate their positions across
// all of a query's workers and flush one TouchMany per query,
// aggregates flush one TouchMask per morsel. The touch lock is never
// held across a scan.
package engine

import (
	"errors"
	"math"
	"slices"
	"sync"

	"amnesiadb/internal/bitvec"
	"amnesiadb/internal/column"
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

// Exec is a query executor bound to one table. The zero value is unusable;
// construct with New. An Exec holds no per-query state — only
// configuration (the table binding, the touch flag, the parallelism
// knob) — so one executor may serve any number of concurrent read-only
// queries once configured.
type Exec struct {
	t     *table.Table
	touch bool
	// par is the intra-query parallelism knob; see SetParallelism.
	par int
	// sched, when non-nil, dispatches parallel work through a shared
	// worker pool instead of spawning per-query goroutines; see
	// SetScheduler.
	sched *sched.Pool
}

// New returns an executor for t that records access frequencies (Touch)
// for tuples returned by ScanActive selections — the feedback loop
// query-based amnesia (§3.2) depends on.
func New(t *table.Table) *Exec { return &Exec{t: t, touch: true} }

// NewSilent returns an executor that does not update access frequencies.
// Metric ground-truth scans use it so that measuring precision does not
// perturb rot-style strategies.
func NewSilent(t *table.Table) *Exec { return &Exec{t: t} }

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
	c, err := e.t.Column(col)
	if err != nil {
		return nil, err
	}
	var active *bitvec.Vector
	if mode == ScanActive {
		active = e.t.Active()
	}
	// The scan kernel fills pooled batches (morsel-parallel past the
	// threshold); the chunks are then merged once into an exactly-sized
	// result. One pass over the data, no append-doubling churn.
	res := mergeChunks(e.collectAll(c, pred, active))
	if touch && mode == ScanActive {
		e.t.TouchMany(res.Rows)
	}
	return res, nil
}

// SelChunk is one batch-sized piece of a chunked selection: qualifying
// tuple positions and the parallel attribute values, in insertion order
// within and across chunks. The caller owns the slices.
type SelChunk struct {
	Rows   []int32
	Values []int64

	// quota, when non-nil, holds the per-query resource account this
	// chunk's pooled buffers are charged against; RecycleChunk releases
	// the charge when the buffers return to the pool. Copies of the
	// chunk carry the stamp, so whichever copy is recycled settles it.
	quota *governor.Quota
}

// SelectChunks is Select without the final concatenation: the qualifying
// tuples come back as the scan pipeline produced them — a list of
// batch-sized chunks in insertion order — so callers (the SQL layer's
// result stream) can project and serialize incrementally instead of
// materializing one flat result. Chunk buffers are stolen from the batch
// pool (the pool replaces them on demand); the caller owns them.
// Concatenating the chunks yields exactly Select's Rows and Values.
func (e *Exec) SelectChunks(col string, pred expr.Expr, mode ScanMode) ([]SelChunk, error) {
	c, err := e.t.Column(col)
	if err != nil {
		return nil, err
	}
	var active *bitvec.Vector
	if mode == ScanActive {
		active = e.t.Active()
	}
	batches := e.collectAll(c, pred, active)
	out := make([]SelChunk, len(batches))
	for i, b := range batches {
		out[i] = SelChunk{Rows: b.Sel, Values: b.Val}
	}
	if e.touch && mode == ScanActive {
		// One TouchMany per query, like Select: flushing per chunk would
		// contend on the touch mutex once per batch across concurrent
		// readers — exactly the serialisation the per-query flush exists
		// to avoid.
		total := 0
		for _, b := range batches {
			total += len(b.Sel)
		}
		if total > 0 {
			rows := make([]int32, 0, total)
			for _, b := range batches {
				rows = append(rows, b.Sel...)
			}
			e.t.TouchMany(rows)
		}
	}
	return out, nil
}

// collectAll runs the scan pipeline over the whole column — serial, or
// morsel-parallel when the knob admits workers — and returns the
// qualifying rows as truncated pooled batches in insertion order. Both
// Select and SelectChunks drain this one path. Parallel scans pull
// adaptively sized morsels (see adaptiveMorsels): each claimed range
// fills its own chunk-list slot keyed by claim sequence, and the
// flattening walks the slots in claim order — claims are contiguous and
// ascending, so rows stay in insertion order, byte-identical to the
// serial scan at every stride.
func (e *Exec) collectAll(c *column.Int64, pred expr.Expr, active *bitvec.Vector) []*Batch {
	w := e.workersFor(c.Len())
	if w <= 1 {
		return collectChunks(c, pred, active, 0, c.Len())
	}
	cur := e.newMorsels(c)
	var mu sync.Mutex
	var slots [][]*Batch
	runOne := func() bool {
		r, seq, ok := cur.claim()
		if !ok {
			return false
		}
		cs := collectChunks(c, pred, active, r.start, r.end)
		qual := 0
		for _, b := range cs {
			qual += len(b.Sel)
		}
		cur.observe(qual)
		mu.Lock()
		for len(slots) <= seq {
			slots = append(slots, nil)
		}
		slots[seq] = cs
		mu.Unlock()
		return true
	}
	if e.sched != nil {
		// Shared-pool dispatch: the scan becomes one pool query of w
		// concurrent steps, scheduled fair-share against every other
		// active query; the calling goroutine drives its own steps while
		// it waits, so a saturated pool never idles the caller.
		q := e.sched.Attach(w, shortScan(c.Len()), func() sched.Status {
			if !runOne() {
				return sched.Done
			}
			return sched.Ran
		})
		q.Wait()
	} else {
		var wg sync.WaitGroup
		for i := 0; i < w; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for runOne() {
				}
			}()
		}
		wg.Wait()
	}
	e.recordStride(cur)
	var flat []*Batch
	for _, cs := range slots {
		flat = append(flat, cs...)
	}
	return flat
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
// same aggregate at every parallelism. On the feedback path each morsel
// flushes the masks of the rows it folded through Table.TouchMask: the
// same rows a Select would touch, in O(morsel) memory. It returns
// ErrNoRows when no tuple qualifies.
func (e *Exec) Aggregate(col string, pred expr.Expr, mode ScanMode) (*AggResult, error) {
	c, err := e.t.Column(col)
	if err != nil {
		return nil, err
	}
	var active *bitvec.Vector
	if mode == ScanActive {
		active = e.t.Active()
	}
	lo, hi, exact := pred.Bounds()
	rowsPer, nm := morselGeometry(c)
	workers := e.workersFor(c.Len())
	partials := make([]AggResult, workers)
	for i := range partials {
		partials[i].Min, partials[i].Max = math.MaxInt64, math.MinInt64
	}
	// One mask scratch per worker, a morsel's worth of bitmap words;
	// nil (no masks recorded) off the feedback path.
	var scratch []uint64
	wordsPer := (min(rowsPer, c.Len()) + 63) / 64
	if e.touch && mode == ScanActive {
		scratch = make([]uint64, workers*wordsPer)
	}
	e.forEachMorsel(workers, nm, func(w, m int) {
		p := &partials[w]
		start, end := m*rowsPer, min((m+1)*rowsPer, c.Len())
		var masks []uint64
		if scratch != nil {
			masks = scratch[w*wordsPer:][:(end-start+63)/64]
			clear(masks)
		}
		if exact {
			p.fold(c.AggregateRangeIn(lo, hi, active, start, end, masks))
		} else {
			scanMorselBatches(c, lo, hi, exact, pred, active, start, end, func(sel []int32, val []int64) {
				if masks != nil {
					for _, r := range sel {
						masks[(int(r)-start)>>6] |= 1 << (uint(r) & 63)
					}
				}
				var sum int64
				for _, v := range val {
					sum += v
				}
				p.fold(len(val), sum, slices.Min(val), slices.Max(val))
			})
		}
		if masks != nil {
			e.t.TouchMask(start>>6, masks)
		}
	})
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
	} else {
		rf = e.countMatches(c, pred, ScanActive)
	}
	mf = e.countMatches(c, pred, ScanAll) - rf
	if rf+mf == 0 {
		return 0, 0, 1, nil
	}
	return rf, mf, float64(rf) / float64(rf+mf), nil
}
