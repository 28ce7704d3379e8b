package engine

import (
	"context"
	"runtime"
	"sync/atomic"

	"amnesiadb/internal/bitvec"
	"amnesiadb/internal/column"
	"amnesiadb/internal/engine/governor"
	"amnesiadb/internal/engine/sched"
	"amnesiadb/internal/expr"
)

// MorselBlocks is the number of zone-mapped blocks one morsel covers.
// With the default 1024-row blocks a morsel is 64Ki rows — large enough
// that a worker amortises its scheduling atomics over many batches,
// small enough that workers finishing early keep stealing work from the
// shared counter until the column is drained.
const MorselBlocks = 64

// parallelMinRows is the auto-parallelism threshold of scans: one
// maximum-stride morsel of default-size blocks (1 Mi rows). The adaptive
// cursor already says a sparse scan's right unit of work is that big,
// so a smaller table has nothing to split: attaching workers and
// merging would cost more than a near-roofline scan saves.
const parallelMinRows = MaxMorselBlocks * column.DefaultBlockSize

// TaskMinRows is the same threshold for the per-row-heavy barriers —
// sort runs, join build and probe: at tens of nanoseconds a row, one
// base morsel (64 Ki rows) is already milliseconds of work and worth
// splitting.
const TaskMinRows = MorselBlocks * column.DefaultBlockSize

// SetParallelism sets the executor's intra-query parallelism: 0 (the
// default) picks GOMAXPROCS workers for scans of at least
// parallelMinRows rows and runs smaller scans on one worker; 1 pins
// every scan to one worker; n > 1 asks for n workers regardless of
// table size, clamped to the pool's width. Configure before sharing the
// executor — the knob is plain state, not synchronized, so it must not
// change concurrently with queries.
func (e *Exec) SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	e.par = n
}

// Parallelism returns the configured knob (0 = auto).
func (e *Exec) Parallelism() int { return e.par }

// SetScheduler picks the worker pool the executor's steps run on; nil
// (the default) is sched.Default(). Configure before sharing the
// executor, like SetParallelism.
func (e *Exec) SetScheduler(p *sched.Pool) { e.sched = p }

// WithContext returns a shallow copy of the executor whose operators
// run under ctx: they stop at the next morsel boundary once ctx is done
// or its governor quota is killed, and report the cause. An executor
// that never got one runs under the background context its constructor
// installed and cannot be cancelled.
func (e *Exec) WithContext(ctx context.Context) *Exec {
	c := *e
	c.ctx = ctx
	return &c
}

// WithLimit returns a shallow copy of the executor whose
// SelectChunkStream emits at most n rows and then ends cleanly — an
// unordered LIMIT pushed into the scan — touching exactly the rows it
// emitted. n <= 0 means no limit, the default.
func (e *Exec) WithLimit(n int) *Exec {
	c := *e
	c.limit = n
	return &c
}

// workersFor resolves the knob to a worker count for a scan of rows
// tuples.
func (e *Exec) workersFor(rows int) int { return Workers(e.sched, e.par, rows, parallelMinRows) }

// shortScanRows is the priority-boost threshold: queries scanning at
// most this many tuples count as short for the shared pool's
// fair-share dispatch, so point lookups overtake long scans without
// starving them (the boost is burst-bounded in sched).
const shortScanRows = 8 * MorselBlocks * column.DefaultBlockSize

// shortScan classifies a scan of rows tuples for pool priority.
func shortScan(rows int) bool { return rows <= shortScanRows }

// poolOf is the one place an unset pool becomes the process-global one:
// executors, relations, partition sets and SQL options all carry their
// *sched.Pool here as they got it.
func poolOf(p *sched.Pool) *sched.Pool {
	if p == nil {
		return sched.Default()
	}
	return p
}

// Workers is the one knob resolution, for a task over rows tuples on
// pool p: par 1 is one worker, n > 1 asks for n, 0 (auto) uses
// GOMAXPROCS from minRows rows on and one worker below it; whatever was
// resolved is capped at the pool's width, because the pool is where the
// steps run. Scans pass parallelMinRows, the per-row-heavy barriers
// (join, SQL sort) TaskMinRows — so the knob means the same thing
// everywhere and only the break-even size differs.
func Workers(p *sched.Pool, par, rows, minRows int) int {
	w := par
	if par == 0 {
		w = 1
		if rows >= minRows {
			w = runtime.GOMAXPROCS(0)
		}
	}
	if w > 1 {
		w = min(w, poolOf(p).Size())
	}
	return w
}

// run is the engine's one barrier dispatcher. step(worker) does one
// unit of work — typically claim a morsel and scan it — and reports
// whether there may be more; run calls it until some call reports
// false, on one worker inline on the caller, otherwise as one pool
// query of that width which the caller drives alongside the pool's
// workers (Attach + Wait), so a barrier nested inside another query's
// step makes progress on its own. Worker indices are dense in
// [0, workers) and never held by two concurrent steps: steps run on
// arbitrary goroutines, so the index is leased from a slot channel the
// pool's width cap keeps from ever blocking. Before every step run
// checks ctx and the query's governor quota; once either fails no new
// step starts, running ones finish, and run reports the cause — callers
// must treat a non-nil return as "results incomplete".
func run(ctx context.Context, p *sched.Pool, workers int, short bool, step func(worker int) bool) error {
	quota := governor.FromContext(ctx)
	if workers <= 1 {
		for {
			if err := alive(ctx, quota); err != nil {
				return err
			}
			if !step(0) {
				return nil
			}
		}
	}
	var failed atomic.Pointer[error]
	slots := make(chan int, workers)
	for w := 0; w < workers; w++ {
		slots <- w
	}
	poolOf(p).Attach(workers, short, func() sched.Status {
		if err := alive(ctx, quota); err != nil {
			failed.CompareAndSwap(nil, &err)
			return sched.Done
		}
		w := <-slots
		more := step(w)
		slots <- w
		if !more {
			return sched.Done
		}
		return sched.Ran
	}).Wait()
	if err := failed.Load(); err != nil {
		return *err
	}
	return nil
}

// alive is the check before every step: the context's cancellation
// cause, or what killed the query's quota (budget, shed, deadline).
func alive(ctx context.Context, quota *governor.Quota) error {
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	return quota.Check()
}

// ForEachTask is run over an indexed task list: steps pull indices
// [0, n) from a shared atomic counter until none remain, calling
// fn(worker, i) for each. Dynamic pulling is what makes the split
// morsel-driven rather than range-partitioned: a worker whose morsels
// were zone-pruned away immediately takes load off the others. fn must
// be safe for concurrent invocation with distinct indices. Every
// barrier with a known task count — the parts barrier's aggregate,
// count and group-by tasks, join partitions and probe morsels, SQL sort
// runs — schedules through this. A list no longer than its workers runs
// as a short query.
func ForEachTask(ctx context.Context, p *sched.Pool, workers, n int, fn func(worker, i int)) error {
	return forEachTask(ctx, p, workers, n <= workers, n, fn)
}

// forEachTask is ForEachTask with the pool priority given.
func forEachTask(ctx context.Context, p *sched.Pool, workers int, short bool, n int, fn func(worker, i int)) error {
	var next atomic.Int64
	return run(ctx, p, min(workers, n), short, func(w int) bool {
		i := int(next.Add(1)) - 1
		if i >= n {
			return false
		}
		fn(w, i)
		return true
	})
}

// barrier runs fn over the tasks of a barrier scan of parts — each
// part's one index task, or its fixed MorselBlocks-block morsels, parts
// in order — as one ForEachTask over the flattened list, with the
// workers and priority scanWorkers resolved for parts. fn gets a dense
// worker index in [0, workers), so callers keep per-worker partials.
func (e *Exec) barrier(parts []scanPart, workers int, short bool, fn func(w int, p scanPart, r rowRange)) error {
	n := 0
	for _, p := range parts {
		_, m := p.morsels()
		n += m
	}
	tasks := make([]partTask, 0, n)
	for i, p := range parts {
		rowsPer, m := p.morsels()
		for j := range m {
			tasks = append(tasks, partTask{part: i, r: rowRange{j * rowsPer, min((j+1)*rowsPer, p.c.Len())}})
		}
	}
	return forEachTask(e.ctx, e.sched, workers, short, n, func(w, i int) {
		fn(w, parts[tasks[i].part], tasks[i].r)
	})
}

// batches hands fn every non-empty batch of task r's qualifying rows
// under active (nil: every stored tuple): the index plan's batches for
// an index task, else the range-bounded scan kernel and the vectorized
// filter over r in one worker-local pooled batch. It is the per-task
// scan body of every barrier fold that does not run on the kernel's
// masks. The slices passed to fn are only valid during the call.
func (p scanPart) batches(pred expr.Expr, active *bitvec.Vector, r rowRange, fn func(sel []int32, val []int64)) {
	if p.cur.index != nil {
		for _, b := range p.cur.index.scan(p.c, pred, active) {
			fn(b.Sel, b.Val)
			PutBatch(b)
		}
		return
	}
	lo, hi, exact := pred.Bounds()
	b := GetBatch()
	defer PutBatch(b)
	for pos := r.start; pos < r.end && pos < p.c.Len(); {
		var n int
		n, pos = p.c.ScanBatchRange(lo, hi, active, pos, r.end, b.Sel, b.Val)
		if n == 0 {
			continue
		}
		if !exact {
			n = expr.Filter(pred, b.Sel, b.Val, n)
		}
		if n > 0 {
			fn(b.Sel[:n], b.Val[:n])
		}
	}
}

// collectChunks runs the scan pipeline over rows [start, end) and
// returns the qualifying rows as a list of pooled batches, each
// truncated to its fill. The caller owns the batches. Every morsel of
// a stream and the index plan's uncovered tail use this one loop.
func collectChunks(c *column.Int64, pred expr.Expr, active *bitvec.Vector, start, end int) []*Batch {
	lo, hi, exact := pred.Bounds()
	var out []*Batch
	for pos := start; pos < end && pos < c.Len(); {
		b := GetBatch()
		var n int
		n, pos = c.ScanBatchRange(lo, hi, active, pos, end, b.Sel, b.Val)
		if n > 0 && !exact {
			n = expr.Filter(pred, b.Sel, b.Val, n)
		}
		if n == 0 {
			PutBatch(b)
			continue
		}
		b.Sel, b.Val = b.Sel[:n], b.Val[:n]
		out = append(out, b)
	}
	return out
}
