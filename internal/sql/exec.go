package sql

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"amnesiadb/internal/engine"
	"amnesiadb/internal/engine/governor"
	"amnesiadb/internal/engine/sched"
	"amnesiadb/internal/expr"
)

// Result is the materialized tabular output of Run — ResultStream's
// Collect form, kept for tests and one-shot callers.
type Result struct {
	// Columns are the output column headers.
	Columns []string
	// Rows holds one slice per result row, aligned with Columns.
	// Aggregate results have exactly one row. A NaN cell is the
	// NULL-style value a non-COUNT aggregate reports over an empty
	// qualifying set.
	Rows [][]float64
	// Ints is true per column when values are exact integers (projection
	// columns, COUNT/SUM/MIN/MAX); AVG reports a float.
	Ints []bool
}

// Opts tunes query execution.
type Opts struct {
	// Parallelism is the engine's intra-query parallelism knob: 0 auto
	// (morsel-parallel scans, sorts and joins for large inputs),
	// 1 serial, n > 1 forces n workers. See engine.Exec.SetParallelism.
	Parallelism int
	// Ctx, when non-nil, scopes the query's producers: cancelling it
	// tears down in-flight morsel workers, shard fan-outs and join
	// collections mid-scan. The HTTP server threads the request context
	// through here so a disconnected client stops paying for its query.
	Ctx context.Context
	// Sched is the worker pool the query's own barriers — sort runs
	// and join phases — run on (nil is sched.Default()); relation scans
	// use the scheduler stamped on the relation itself. A forced
	// Parallelism above the pool width is clamped to it.
	Sched *sched.Pool
	// Quota, when non-nil, is the query's resource account: every
	// pooled chunk the pipeline keeps in flight, join build table and
	// sort permutation charges it, and exhausting it cancels this query
	// alone with governor.ErrResourceExhausted. The quota rides the
	// execution context, so it reaches scans, joins and sorts without
	// further plumbing. Lifecycle (registration with a process
	// Governor, removal at stream end) is the caller's.
	Quota *governor.Quota
	// MaxDuration, when positive, is the query's deadline: execution is
	// wrapped in a timeout context whose cancellation cause is
	// governor.ErrDeadlineExceeded, and the same deadline is stamped on
	// Quota so morsel-boundary checks fire even between channel waits.
	MaxDuration time.Duration
	// StallDetach, when positive, arms spill-on-stall on streaming
	// value-only selects: once the pipeline's send to a consumer that
	// has not taken a chunk blocks this long, the rest of the stream
	// goes to a heap buffer, so the producers finish and relation read
	// locks release, and the tail is served from the buffer
	// byte-identically.
	StallDetach time.Duration
}

// context resolves the optional Ctx.
func (o Opts) context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	//lint:ignore ctxflow Opts.Ctx is optional by contract; this is the one sanctioned fallback root for ctx-less callers.
	return context.Background()
}

// Run parses and executes one SELECT against the catalog, querying active
// tuples only (the amnesiac view), and materializes the full result.
func Run(cat Catalog, query string) (*Result, error) {
	return RunOpts(cat, query, Opts{})
}

// RunOpts is Run with execution options.
func RunOpts(cat Catalog, query string, o Opts) (*Result, error) {
	st, err := RunStream(cat, query, o)
	if err != nil {
		return nil, err
	}
	return st.Collect()
}

// RunStream parses and executes one SELECT, returning the chunked
// result stream instead of a materialized Result.
func RunStream(cat Catalog, query string, o Opts) (*ResultStream, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return ExecStream(cat, q, o)
}

// Exec executes a parsed query with default options.
func Exec(cat Catalog, q *Query) (*Result, error) {
	return ExecOpts(cat, q, Opts{})
}

// ExecOpts executes a parsed query and materializes the result.
func ExecOpts(cat Catalog, q *Query, o Opts) (*Result, error) {
	st, err := ExecStream(cat, q, o)
	if err != nil {
		return nil, err
	}
	return st.Collect()
}

// badQuery wraps a semantic validation failure (unknown column,
// cross-column aggregate, unsupported join shape) so it maps to "bad
// SQL" rather than an internal error.
func badQuery(err error) error { return fmt.Errorf("%w: %v", ErrInvalid, err) }

func badQueryf(format string, args ...any) error {
	return badQuery(fmt.Errorf(format, args...))
}

// ExecStream executes a parsed query. Validation — catalog lookups,
// column resolution, join-shape checks — happens before the stream is
// returned, so an error here is a rejected query; errors from the
// stream's Next are mid-flight execution failures.
func ExecStream(cat Catalog, q *Query, o Opts) (*ResultStream, error) {
	o, cancel := o.arm()
	st, err := execStream(cat, q, o)
	if err != nil {
		if cancel != nil {
			cancel()
		}
		return nil, err
	}
	if cancel != nil {
		st.addCleanup(cancel)
	}
	return st, nil
}

// arm applies the governance knobs: the quota is threaded into the
// execution context, and a MaxDuration wraps it in a timeout whose
// cancellation cause is the typed deadline error. The returned cancel
// (nil when no deadline) releases the timer; ExecStream hooks it into
// the stream's cleanup.
func (o Opts) arm() (Opts, context.CancelFunc) {
	if o.Quota == nil && o.MaxDuration <= 0 {
		return o, nil
	}
	ctx := o.context()
	if o.Quota != nil {
		ctx = governor.WithQuota(ctx, o.Quota)
	}
	var cancel context.CancelFunc
	if o.MaxDuration > 0 {
		// Stamp the quota too: the morsel-boundary Check fires even on
		// compute-bound stretches between channel operations, keeping
		// cancellation prompt.
		o.Quota.SetDeadline(time.Now().Add(o.MaxDuration))
		ctx, cancel = context.WithTimeoutCause(ctx, o.MaxDuration, governor.ErrDeadlineExceeded)
	}
	o.Ctx = ctx
	return o, cancel
}

func execStream(cat Catalog, q *Query, o Opts) (*ResultStream, error) {
	if q.Join != nil {
		return execJoinStream(cat, q, o)
	}
	rel, err := cat.Lookup(q.Table)
	if err != nil {
		return nil, err
	}
	if q.Aggregate != nil {
		return execAggregateStream(rel, q, o)
	}
	return execSelectStream(rel, q, o)
}

// hasColumn reports whether the relation projects the named column.
func hasColumn(rel Relation, name string) bool {
	for _, c := range rel.Columns() {
		if c == name {
			return true
		}
	}
	return false
}

// resolveRef validates a column reference against a single-table query:
// the qualifier, when present, must name the queried table, and the
// column must exist.
func resolveRef(rel Relation, tableName string, ref ColRef) (string, error) {
	if ref.Table != "" && ref.Table != tableName {
		return "", badQueryf("unknown table qualifier %q in %q", ref.Table, ref)
	}
	if !hasColumn(rel, ref.Name) {
		return "", badQueryf("relation %q has no column %q", tableName, ref.Name)
	}
	return ref.Name, nil
}

// queryLimit resolves the LIMIT clause: -1 means unlimited.
func queryLimit(q *Query) int {
	if q.HasLimit {
		return q.Limit
	}
	return -1
}

// execSelectStream streams a single-relation projection as a true
// pipeline: the engine's morsel workers push scan chunks into a bounded
// channel while they are still scanning, and Next projects whatever has
// arrived — so the first rows reach the server after the first morsel,
// not the full scan, with backpressure from a slow consumer halting the
// producers. ORDER BY is the one barrier: the qualifying set
// materializes for the sort, for both relation kinds.
func execSelectStream(rel Relation, q *Query, o Opts) (*ResultStream, error) {
	var cols []string    // plain column names to project
	var headers []string // output headers as written
	if q.Star {
		cols = rel.Columns()
		headers = cols
	} else {
		for _, ref := range q.Columns {
			name, err := resolveRef(rel, q.Table, ref)
			if err != nil {
				return nil, err
			}
			cols = append(cols, name)
			headers = append(headers, ref.String())
		}
	}
	pred := q.Where
	if pred == nil {
		pred = expr.True{}
	}
	// The predicate runs over WhereCol (or the first projected column
	// for predicate-free queries).
	scanCol := cols[0]
	if q.WhereCol.Name != "" {
		name, err := resolveRef(rel, q.Table, q.WhereCol)
		if err != nil {
			return nil, err
		}
		scanCol = name
	}
	orderCol := ""
	if q.OrderBy.Name != "" {
		name, err := resolveRef(rel, q.Table, q.OrderBy)
		if err != nil {
			return nil, err
		}
		orderCol = name
	}
	ints := make([]bool, len(cols))
	for i := range ints {
		ints[i] = true
	}
	limit := queryLimit(q)
	if limit == 0 {
		// LIMIT 0 asks for zero rows; skip the scan (every referenced
		// column is validated above, so an invalid query still errors).
		return emptyStream(headers, ints), nil
	}
	// A value-only projection (every output column is the scan column —
	// notably every partitioned-table select) never reads relation
	// storage after the scan side completes: the stream advertises the
	// pipeline's scan-completion signal so catalog holders can release
	// their locks as soon as the producers finish, even while a slow
	// consumer is still draining.
	valueOnly := true
	for _, c := range cols {
		if c != scanCol {
			valueOnly = false
			break
		}
	}
	// An unordered LIMIT goes down into the scan, so it touches exactly
	// the rows returned; a sort reads every qualifying row.
	scanLimit := limit
	if orderCol != "" {
		scanLimit = -1
	}
	cs, err := rel.ScanChunkStream(o.context(), scanCol, pred, o.Parallelism, scanLimit)
	if err != nil {
		return nil, err
	}
	if orderCol != "" {
		// The sort is a barrier: drain the pipeline, then sort.
		chunks, err := cs.Collect()
		if err != nil {
			return nil, err
		}
		return orderedSelectStream(o.context(), rel, headers, ints, cols, scanCol, orderCol, chunks, q.OrderDesc, limit, o.Parallelism, o.Sched, valueOnly)
	}

	// Unordered pipelined path: pull chunks off the bounded channel as
	// the producers emit them, assembling up to StreamChunkRows projected
	// rows per Next and counting the LIMIT down across chunks.
	if valueOnly {
		// Spill-on-stall applies exactly where early lock release does:
		// a value-only stream whose locks drop at ScanDone. Lazily
		// projecting streams must pin their relations until Close
		// regardless, so detaching their scan would buy nothing.
		cs.DetachOnStall(o.StallDetach)
	}
	cursor := &chunkCursor{cs: cs, rem: limit, out: intChunk(len(cols), 0),
		emit: func(out *Chunk, c engine.SelChunk, off, end int) error {
			return projectSpan(rel, cols, scanCol, c.Rows[off:end], c.Values[off:end], out)
		},
	}
	st := newResultStream(headers, ints, cursor.next)
	st.closeFn = cs.Close
	st.scanDone = cs.ScanDone()
	st.earlyRelease = valueOnly
	return st, nil
}

// chunkCursor walks a pipelined chunk stream window by window: it pulls
// chunks as the producers emit them, assembles up to StreamChunkRows
// output rows per next call through emit, counts the LIMIT down across
// chunks, closes the producers the moment the LIMIT is satisfied
// (cancelling still-running scans), and returns fully consumed chunks
// to the engine's batch pool.
type chunkCursor struct {
	cs *engine.ChunkStream
	// emit appends c's [off, end) span to out's columns.
	emit func(out *Chunk, c engine.SelChunk, off, end int) error
	// out is the output window, refilled by every next call: its
	// column arrays grow to one window once and are reused after.
	out *Chunk

	cur     engine.SelChunk
	off     int
	rem     int // LIMIT countdown; -1 = unlimited
	drained bool
}

func (k *chunkCursor) next() (*Chunk, error) {
	if k.drained {
		return nil, nil
	}
	out := k.out
	out.reset()
	for out.Len < StreamChunkRows && k.rem != 0 {
		if k.off >= len(k.cur.Values) {
			engine.RecycleChunk(k.cur)
			k.cur, k.off = engine.SelChunk{}, 0
			c, ok, err := k.cs.Next()
			if err != nil {
				k.drained = true
				return nil, err
			}
			if !ok {
				k.drained = true
				break
			}
			k.cur = c
			continue
		}
		take := len(k.cur.Values) - k.off
		if n := StreamChunkRows - out.Len; take > n {
			take = n
		}
		if k.rem > 0 && take > k.rem {
			take = k.rem
		}
		if err := k.emit(out, k.cur, k.off, k.off+take); err != nil {
			k.drained = true
			k.cs.Close()
			return nil, err
		}
		out.Len += take
		k.off += take
		if k.rem > 0 {
			k.rem -= take
		}
	}
	if k.rem == 0 && !k.drained {
		// LIMIT satisfied: stop the producers; the stream ends here.
		k.drained = true
		engine.RecycleChunk(k.cur)
		k.cs.Close()
	}
	return out, nil
}

// orderedSelectStream sorts the qualifying set and streams the sorted
// projection window by window.
func orderedSelectStream(ctx context.Context, rel Relation, headers []string, ints []bool, cols []string, scanCol, orderCol string, chunks []engine.SelChunk, desc bool, limit, par int, sp *sched.Pool, valueOnly bool) (*ResultStream, error) {
	total := 0
	for _, c := range chunks {
		total += len(c.Values)
	}
	rows := make([]int32, 0, total)
	vals := make([]int64, 0, total)
	for _, c := range chunks {
		rows = append(rows, c.Rows...)
		vals = append(vals, c.Values...)
		engine.RecycleChunk(c)
	}
	keys := vals
	if orderCol != scanCol {
		var err error
		keys, err = rel.Gather(orderCol, rows, nil)
		if err != nil {
			return nil, err
		}
	}
	perm, err := orderPerm(ctx, keys, desc, limit, par, sp)
	if err != nil {
		return nil, err
	}
	pos := 0
	window := min(len(perm), StreamChunkRows)
	wrows := make([]int32, 0, window)
	wvals := make([]int64, 0, window)
	out := intChunk(len(cols), window)
	next := func() (*Chunk, error) {
		if pos >= len(perm) {
			return nil, nil
		}
		end := min(pos+StreamChunkRows, len(perm))
		wrows, wvals = wrows[:0], wvals[:0]
		for _, p := range perm[pos:end] {
			wrows = append(wrows, rows[p])
			wvals = append(wvals, vals[p])
		}
		pos = end
		out.reset()
		if err := projectSpan(rel, cols, scanCol, wrows, wvals, out); err != nil {
			return nil, err
		}
		out.Len = len(wvals)
		return out, nil
	}
	// The sort keys were gathered above, so after construction a
	// value-only projection touches no relation storage.
	st := newResultStream(headers, ints, next)
	st.Detached = valueOnly
	return st, nil
}

// projectSpan appends one span of qualifying tuples to out's columns,
// column-at-a-time: the scan column's values are already in hand and
// are copied, every other column is gathered over the span's
// positions straight into its output array. The caller advances
// out.Len.
func projectSpan(rel Relation, cols []string, scanCol string, rows []int32, vals []int64, out *Chunk) error {
	for ci, cn := range cols {
		col := &out.Cols[ci]
		if cn == scanCol {
			col.Ints = append(col.Ints, vals...)
			continue
		}
		var err error
		if col.Ints, err = gatherAppend(rel, cn, rows, col.Ints); err != nil {
			return err
		}
	}
	return nil
}

// gatherAppend appends column cn's values at rows to dst, gathering in
// place when dst has the room.
func gatherAppend(rel Relation, cn string, rows []int32, dst []int64) ([]int64, error) {
	n := len(dst)
	g, err := rel.Gather(cn, rows, dst[n:])
	if err != nil {
		return dst, err
	}
	if cap(dst)-n >= len(rows) {
		return dst[:n+len(rows)], nil
	}
	return append(dst, g...), nil
}

func execAggregateStream(rel Relation, q *Query, o Opts) (*ResultStream, error) {
	kind := *q.Aggregate
	col := q.AggregateCol
	if col == "*" {
		// COUNT(*): count over the predicate column, or any column for
		// predicate-free counting.
		col = q.WhereCol.Name
		if col == "" {
			col = rel.Columns()[0]
		}
	}
	if !hasColumn(rel, col) {
		return nil, badQueryf("relation %q has no column %q", q.Table, col)
	}
	if q.WhereCol.Name != "" {
		if _, err := resolveRef(rel, q.Table, q.WhereCol); err != nil {
			return nil, err
		}
		if q.AggregateCol != "*" && q.WhereCol.Name != q.AggregateCol {
			return nil, badQueryf("aggregate column %q must match WHERE column %q in the single-attribute subspace", q.AggregateCol, q.WhereCol.Name)
		}
	}
	pred := q.Where
	if pred == nil {
		pred = expr.True{}
	}
	header := fmt.Sprintf("%s(%s)", kind, q.AggregateCol)
	headers := []string{header}
	ints := []bool{kind != engine.Avg}
	if q.HasLimit && q.Limit == 0 {
		// LIMIT 0 caps even the aggregate's single row.
		return emptyStream(headers, ints), nil
	}
	// The aggregate is one barrier inside the engine, which checks ctx
	// and the quota's deadline (and any pressure kill) before every
	// morsel; the check here rejects at admission, before any touch.
	ctx := o.context()
	if err := governor.FromContext(ctx).Check(); err != nil {
		return nil, err
	}
	agg, err := rel.Aggregate(ctx, col, pred, o.Parallelism)
	if errors.Is(err, engine.ErrNoRows) {
		// SQL semantics over an empty qualifying set; see aggChunk.
		return oneChunkStream(headers, ints, aggChunk(kind, nil)), nil
	}
	if err != nil {
		return nil, err
	}
	return oneChunkStream(headers, ints, aggChunk(kind, agg)), nil
}

// aggChunk is an aggregate's one-row result; a nil agg is the empty
// qualifying set. COUNT is an exact integer cell, 0 over the empty set;
// every other aggregate is a float cell, NaN (NULL) over the empty set.
func aggChunk(kind engine.AggKind, agg *engine.AggResult) *Chunk {
	if kind == engine.Count {
		n := 0
		if agg != nil {
			n = agg.Rows
		}
		return &Chunk{Len: 1, Cols: []Col{{Ints: []int64{int64(n)}}}}
	}
	v := math.NaN()
	if agg != nil {
		v = agg.Value(kind)
	}
	return &Chunk{Len: 1, Cols: []Col{{Floats: []float64{v}}}}
}
