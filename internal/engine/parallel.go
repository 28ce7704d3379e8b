package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"amnesiadb/internal/bitvec"
	"amnesiadb/internal/column"
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

// taskMinRows is the same threshold for the per-row-heavy barriers that
// resolve through Workers — sort runs, join build and probe: at tens of
// nanoseconds a row, one base morsel (64 Ki rows) is already
// milliseconds of work and worth splitting.
const taskMinRows = MorselBlocks * column.DefaultBlockSize

// SetParallelism sets the executor's intra-query parallelism: 0 (the
// default) picks GOMAXPROCS workers for scans of at least
// parallelMinRows rows and runs smaller scans serially; 1 forces every
// scan serial; n > 1 forces n workers regardless of table size.
// Configure before sharing the executor — the knob is plain state, not
// synchronized, so it must not change concurrently with queries.
func (e *Exec) SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	e.par = n
}

// Parallelism returns the configured knob (0 = auto).
func (e *Exec) Parallelism() int { return e.par }

// SetScheduler routes the executor's parallel work through a shared
// worker pool: morsel steps are dispatched from the pool's per-query
// queues instead of spawning this executor's own goroutines, and a
// forced Parallelism(n) with n above the pool width is clamped to it.
// nil (the default) keeps the legacy spawn-per-query behaviour.
// Configure before sharing the executor, like SetParallelism.
func (e *Exec) SetScheduler(p *sched.Pool) { e.sched = p }

// Scheduler returns the configured pool, nil when unset.
func (e *Exec) Scheduler() *sched.Pool { return e.sched }

// workersFor resolves the knob to a worker count for a scan of rows
// tuples, clamped to the scheduler pool's width when one is set.
func (e *Exec) workersFor(rows int) int { return resolveWorkers(e.sched, e.par, rows, parallelMinRows) }

// EffectiveWorkers reports the worker count a scan of rows tuples
// actually admits under the executor's knob and scheduler clamp; the
// bench CLI surfaces it next to the requested count.
func (e *Exec) EffectiveWorkers(rows int) int { return e.workersFor(rows) }

// shortScanRows is the priority-boost threshold: queries scanning at
// most this many tuples count as short for the shared pool's
// fair-share dispatch, so point lookups overtake long scans without
// starving them (the boost is burst-bounded in sched).
const shortScanRows = 8 * MorselBlocks * column.DefaultBlockSize

// shortScan classifies a scan of rows tuples for pool priority.
func shortScan(rows int) bool { return rows <= shortScanRows }

// Workers resolves a parallelism knob for a task over rows tuples:
// 1 forces serial, n > 1 forces n workers, 0 (auto) uses GOMAXPROCS
// from taskMinRows rows on and stays serial below it. The join, the SQL
// sort and the benchmarks all share this one resolution so the knob
// means the same thing everywhere; scans resolve the same way from
// their own, higher row threshold (parallelMinRows).
func Workers(par, rows int) int { return resolveWorkers(nil, par, rows, taskMinRows) }

// WorkersSched is Workers with the shared-pool clamp: a forced
// Parallelism(n) with n above the pool width would oversubscribe the
// box the moment queries share one pool, so the resolved count never
// exceeds the pool size. A nil pool resolves exactly like Workers.
func WorkersSched(p *sched.Pool, par, rows int) int {
	return resolveWorkers(p, par, rows, taskMinRows)
}

// resolveWorkers is the one knob resolution: auto goes parallel from
// minRows rows on, and the pool's width caps whatever was resolved.
func resolveWorkers(p *sched.Pool, par, rows, minRows int) int {
	w := par
	if par == 0 {
		w = 1
		if rows >= minRows {
			w = runtime.GOMAXPROCS(0)
		}
	}
	if p != nil && w > p.Size() {
		w = p.Size()
	}
	return w
}

// ForEachTask is the morsel scheduler generalised to any indexed task
// list: workers goroutines pull indices [0, n) from a shared atomic
// counter until none remain. Workers is clamped to n. fn must be safe
// for concurrent invocation with distinct indices. The partition
// layer's shard fan-out and SQL's run sort schedule through this.
func ForEachTask(workers, n int, fn func(i int)) {
	forEachMorsel(workers, n, func(_, i int) { fn(i) })
}

// ForEachTaskSched is ForEachTask dispatched through a shared pool
// when p is non-nil: the tasks become one pool query of the given
// width, scheduled fair-share against every other active query, and
// the calling goroutine drives its own steps while it waits.
func ForEachTaskSched(p *sched.Pool, workers, n int, fn func(i int)) {
	forEachMorselSched(p, workers, n, func(_, i int) { fn(i) })
}

// ForEachTaskCtx is ForEachTaskSched with cooperative cancellation:
// once ctx is done, workers stop claiming tasks (already-started tasks
// finish) and the call reports ctx's error, so a disconnected client's
// fan-out releases its cores within one task instead of running the
// barrier to completion. A nil ctx degrades to ForEachTaskSched.
// Callers must treat a non-nil return as "results incomplete".
func ForEachTaskCtx(ctx context.Context, p *sched.Pool, workers, n int, fn func(i int)) error {
	if ctx == nil {
		ForEachTaskSched(p, workers, n, fn)
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	forEachMorselSched(p, workers, n, func(_, i int) {
		if ctx.Err() != nil {
			return
		}
		fn(i)
	})
	return ctx.Err()
}

// morselGeometry splits c into morsels of MorselBlocks blocks.
func morselGeometry(c *column.Int64) (rowsPerMorsel, numMorsels int) {
	rowsPerMorsel = MorselBlocks * c.BlockSize()
	numMorsels = (c.Len() + rowsPerMorsel - 1) / rowsPerMorsel
	return rowsPerMorsel, numMorsels
}

// forEachMorsel is the morsel scheduler: workers goroutines pull morsel
// indices [0, numMorsels) from a shared atomic counter until none
// remain, calling fn(worker, morsel) for each. Dynamic pulling is what
// makes the split morsel-driven rather than range-partitioned: a worker
// whose morsels were zone-pruned away immediately takes load off the
// others. fn must be safe for concurrent invocation with distinct
// morsel indices; worker indices are dense in [0, workers).
func forEachMorsel(workers, numMorsels int, fn func(worker, morsel int)) {
	if workers > numMorsels {
		workers = numMorsels
	}
	if workers <= 1 {
		for m := 0; m < numMorsels; m++ {
			fn(0, m)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				m := int(next.Add(1)) - 1
				if m >= numMorsels {
					return
				}
				fn(w, m)
			}
		}(w)
	}
	wg.Wait()
}

// forEachMorselSched is forEachMorsel dispatched through a shared pool
// when p is non-nil (nil falls back to spawn-per-call). One pool query
// of the given width covers all morsels; steps run on arbitrary pool
// workers plus the calling goroutine, so the dense worker indices fn
// expects (per-worker partials) are leased from a slot channel — the
// pool caps concurrent steps at width, so a lease never blocks.
func forEachMorselSched(p *sched.Pool, workers, numMorsels int, fn func(worker, morsel int)) {
	if workers > numMorsels {
		workers = numMorsels
	}
	if p == nil || workers <= 1 {
		forEachMorsel(workers, numMorsels, fn)
		return
	}
	var next atomic.Int64
	slots := make(chan int, workers)
	for w := 0; w < workers; w++ {
		slots <- w
	}
	q := p.Attach(workers, numMorsels <= workers, func() sched.Status {
		m := int(next.Add(1)) - 1
		if m >= numMorsels {
			return sched.Done
		}
		w := <-slots
		fn(w, m)
		slots <- w
		return sched.Ran
	})
	q.Wait()
}

// forEachMorsel routes through the executor's scheduler when one is
// configured; the parallel operators all dispatch through this method
// so direct engine users and pool-backed facades share one code path.
func (e *Exec) forEachMorsel(workers, numMorsels int, fn func(worker, morsel int)) {
	forEachMorselSched(e.sched, workers, numMorsels, fn)
}

// scanMorselBatches runs the batch pipeline — range-bounded scan kernel,
// vectorized filter — over rows [start, end) with a worker-local pooled
// batch, handing each non-empty batch to fn. The slices passed to fn are
// only valid during the call.
func scanMorselBatches(c *column.Int64, lo, hi int64, exact bool, pred expr.Expr, active *bitvec.Vector, start, end int, fn func(sel []int32, val []int64)) {
	b := GetBatch()
	defer PutBatch(b)
	for pos := start; pos < end && pos < c.Len(); {
		var n int
		n, pos = c.ScanBatchRange(lo, hi, active, pos, end, b.Sel, b.Val)
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
// truncated to its fill. The caller owns the batches (mergeChunks
// recycles or steals them). Both the serial Select and every parallel
// morsel use this one loop, so the two paths cannot drift apart.
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

// groupByParallel builds per-worker group tables and merges them; the
// caller sorts by key, so worker interleaving never shows. Touched
// positions are collected per morsel and concatenated in morsel order.
func (e *Exec) groupByParallel(c *column.Int64, pred expr.Expr, active *bitvec.Vector, width int64, workers int, touching bool) (map[int64]*Group, []int32) {
	lo, hi, exact := pred.Bounds()
	rowsPer, nm := morselGeometry(c)
	maps := make([]map[int64]*Group, workers)
	var touched [][]int32
	if touching {
		touched = make([][]int32, nm)
	}
	e.forEachMorsel(workers, nm, func(w, m int) {
		byKey := maps[w]
		if byKey == nil {
			byKey = make(map[int64]*Group)
			maps[w] = byKey
		}
		scanMorselBatches(c, lo, hi, exact, pred, active, m*rowsPer, (m+1)*rowsPer, func(sel []int32, val []int64) {
			if touching {
				touched[m] = append(touched[m], sel...)
			}
			foldGroups(byKey, val, width)
		})
	})
	merged := make(map[int64]*Group)
	for _, byKey := range maps {
		for key, g := range byKey {
			mg, ok := merged[key]
			if !ok {
				merged[key] = g
				continue
			}
			mg.Rows += g.Rows
			mg.Sum += g.Sum
			if g.Min < mg.Min {
				mg.Min = g.Min
			}
			if g.Max > mg.Max {
				mg.Max = g.Max
			}
		}
	}
	var flat []int32
	if touching {
		total := 0
		for _, t := range touched {
			total += len(t)
		}
		if total > 0 {
			flat = make([]int32, 0, total)
			for _, t := range touched {
				flat = append(flat, t...)
			}
		}
	}
	return merged, flat
}
