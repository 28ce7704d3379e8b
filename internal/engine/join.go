package engine

import (
	"context"
	"errors"
	"math/bits"
	"slices"
	"sync"

	"amnesiadb/internal/engine/governor"
	"amnesiadb/internal/engine/sched"
	"amnesiadb/internal/expr"
	"amnesiadb/internal/table"
)

// JoinRow is one equi-join match: positions into the left and right
// tables plus the join key.
type JoinRow struct {
	Left  int32
	Right int32
	Key   int64
}

// JoinResult is the output of HashJoin.
type JoinResult struct {
	Rows []JoinRow
}

// Count returns the number of joined pairs.
func (r *JoinResult) Count() int { return len(r.Rows) }

// joinSize predicts a side's qualifying-row magnitude before any scan
// runs: the visible tuple count under the scan mode. It steers which
// side's scatter starts while collecting — a performance guess only; the
// actual build-side choice still uses the exact qualifying counts, so
// output never depends on the prediction.
func joinSize(t *table.Table, mode ScanMode) int {
	if mode == ScanAll {
		return t.Stats().Tuples
	}
	return t.ActiveCount()
}

// joinSide is one input of a join in flight: the chunks its scan
// streamed in, their row count, and — on the side predicted to be the
// build — the radix scatter fed while collecting.
type joinSide struct {
	chunks []SelChunk
	count  int
	scat   *radixScatter
	err    error
}

// collect drains the side's scan stream to its end — also after a
// teardown, so every chunk the stream handed out is in st.chunks for the
// join to flatten or recycle. Chunks arrive in insertion order from the
// single stream, so an incremental scatter sees each partition's keys
// in global build order.
func (st *joinSide) collect(ctx context.Context, ex *Exec, col string, pred expr.Expr, mode ScanMode) {
	cs, err := ex.SelectChunkStream(ctx, col, pred, mode)
	if err != nil {
		st.err = err
		return
	}
	for {
		c, ok, err := cs.Next()
		if !ok {
			st.err = err
			return
		}
		st.chunks = append(st.chunks, c)
		st.count += len(c.Values)
		if st.scat != nil {
			st.scat.add(c)
		}
	}
}

// HashJoin computes the equi-join left.leftCol = right.rightCol over
// tuples visible under mode, completing the SELECT-PROJECT-JOIN subspace
// of §2.2. An optional predicate restricts the join key. It is the
// engine's one join: ctx cancels it, its steps run on sp (nil =
// sched.Default()), and par resolves like Exec.SetParallelism over the
// two sides' visible tuples (0 auto, 1 one worker, n > 1 asks for n).
//
// The build is pipelined: both sides' scans stream concurrently, their
// value vectors doubling as the join keys, and the side predicted to be
// the build (the smaller visible tuple count) feeds a radix scatter as
// its chunks arrive — the scatter finishes essentially when the scan
// does. The real build side is the one with the smaller exact
// qualifying count; if the prediction was wrong, its collected chunks
// go through the same scatter after the fact. One worker builds each
// partition's hash map, and the probe runs morsel by morsel over the
// collected probe vector with per-morsel output slots concatenated in
// probe order. One worker is not a second path: it is one partition
// (radix bits 0), one map and an inline probe loop. Every worker count
// and both prediction outcomes emit byte-identical rows: per-key match
// lists stay in build-side insertion order, output is in probe-side
// position order.
//
// The query's governor quota is checked on entry and charged for the
// streamed chunks, the flat build and probe copies, and the
// concatenated output. On every early return — a bad column, a
// cancellation, an exhausted budget — both sides' collected chunks go
// back to the pool and their charges are released.
//
// In a database with amnesia, join results silently shrink as either
// side forgets matching tuples — JoinPrecision quantifies that loss.
func HashJoin(ctx context.Context, sp *sched.Pool, left *table.Table, leftCol string, right *table.Table, rightCol string, pred expr.Expr, mode ScanMode, par int) (*JoinResult, error) {
	if pred == nil {
		pred = expr.True{}
	}
	quota := governor.FromContext(ctx)
	if err := quota.Check(); err != nil {
		return nil, err
	}
	nl, nr := joinSize(left, mode), joinSize(right, mode)
	workers := Workers(sp, par, nl+nr, TaskMinRows)
	// Next power of two >= workers partitions; one worker, one partition.
	rbits := uint(min(bits.Len(uint(workers-1)), 8))

	// buildGuess is the side whose scatter starts while collecting.
	buildGuess := 0
	if nl > nr {
		buildGuess = 1
	}
	sides := [2]*joinSide{{}, {}}
	sides[buildGuess].scat = newRadixScatter(rbits)
	tables := [2]*table.Table{left, right}
	cols := [2]string{leftCol, rightCol}

	// One side failing (bad column, cancellation) must not leave the
	// sibling scanning its whole table before the error can surface:
	// both collections share a cancel.
	jctx, cancelSides := context.WithCancel(ctx)
	defer cancelSides()
	var wg sync.WaitGroup
	for i, st := range sides {
		ex := NewSilent(tables[i])
		ex.SetParallelism(par)
		ex.SetScheduler(sp)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if st.collect(jctx, ex, cols[i], pred, mode); st.err != nil {
				cancelSides()
			}
		}()
	}
	wg.Wait()
	drop := func(err error) (*JoinResult, error) {
		recycleChunks(sides[0].chunks)
		recycleChunks(sides[1].chunks)
		return nil, err
	}
	// Prefer the concrete failure over the cancellation it induced on
	// the sibling.
	err := sides[0].err
	if err == nil || (errors.Is(err, context.Canceled) && sides[1].err != nil) {
		err = sides[1].err
	}
	if err != nil {
		return drop(err)
	}

	// Both sides are about to be flattened (probe vector, build
	// scatter): charge the flat copies against the query's quota for the
	// duration of build+probe, on top of the chunk charges the side
	// collections are still holding. An over-budget join dies here,
	// before the big allocations, with only its own quota latched.
	flatBytes := int64(sides[0].count+sides[1].count) * (4 + 8)
	if err := quota.Acquire(flatBytes); err != nil {
		return drop(err)
	}
	defer quota.Release(flatBytes)

	// The build side is the smaller qualifying side at every worker
	// count, so probe order (and with it the output) never depends on
	// parallelism or on the prediction.
	swap := sides[0].count > sides[1].count
	build, probeSide := sides[0], sides[1]
	if swap {
		build, probeSide = probeSide, build
	}
	if build.scat == nil {
		// Misprediction: the speculative scatter is discarded and the
		// true build side's chunks take the same route, late.
		build.scat = newRadixScatter(rbits)
		for _, c := range build.chunks {
			build.scat.add(c)
		}
	}
	recycleChunks(build.chunks)
	probe := Flatten(probeSide.chunks)
	ht, err := build.scat.table(ctx, sp, workers)
	if err != nil {
		return nil, err
	}

	// Each probe morsel fills its own output slot (the hash table is
	// read-only by now), and the slots concatenate in morsel order.
	nm := (probe.Count() + probeMorselRows - 1) / probeMorselRows
	slots := make([][]JoinRow, nm)
	err = ForEachTask(ctx, sp, workers, nm, func(_, m int) {
		start := m * probeMorselRows
		slots[m] = probeRange(ht, probe, start, min(start+probeMorselRows, probe.Count()), swap)
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, s := range slots {
		total += len(s)
	}
	// The concatenated output is the join's last big allocation; charge
	// it transiently so a fan-out join (many matches per key) cannot
	// silently multiply past the budget during materialization.
	outBytes := int64(total) * 16
	if err := quota.Acquire(outBytes); err != nil {
		return nil, err
	}
	defer quota.Release(outBytes)
	return &JoinResult{Rows: slices.Concat(slots...)}, nil
}

// radixScatter accumulates build-side keys into radix partitions
// incrementally, one chunk at a time, as the build scan streams in. A
// single goroutine adds chunks in arrival order, so each partition's
// arrays stay in global build order.
type radixScatter struct {
	bits uint
	keys [][]int64
	rows [][]int32
}

func newRadixScatter(rbits uint) *radixScatter {
	n := 1 << rbits
	return &radixScatter{bits: rbits, keys: make([][]int64, n), rows: make([][]int32, n)}
}

// add scatters one chunk's keys and positions into the partitions.
func (s *radixScatter) add(c SelChunk) {
	for i, k := range c.Values {
		p := radixOf(k, s.bits)
		s.keys[p] = append(s.keys[p], k)
		s.rows[p] = append(s.rows[p], c.Rows[i])
	}
}

// table builds the per-partition hash maps — one worker per partition,
// lock-free — over the scattered arrays.
func (s *radixScatter) table(ctx context.Context, sp *sched.Pool, workers int) (*joinTable, error) {
	jt := &joinTable{bits: s.bits, parts: make([]map[int64][]int32, len(s.keys))}
	err := ForEachTask(ctx, sp, workers, len(s.keys), func(_, p int) {
		ht := make(map[int64][]int32, len(s.keys[p]))
		for i, k := range s.keys[p] {
			ht[k] = append(ht[k], s.rows[p][i])
		}
		jt.parts[p] = ht
	})
	return jt, err
}

// probeMorselRows is the probe-side morsel granularity of the parallel
// hash join. Probe input is the already-collected selection vector (not
// the column), so morsels are counted in qualifying rows rather than
// blocks.
const probeMorselRows = 64 * 1024

// joinTable is a hash table over the build side, radix-split by key so
// independent workers can populate disjoint partitions without locks.
// bits == 0 is one flat map (the one-worker build).
type joinTable struct {
	bits  uint
	parts []map[int64][]int32
}

// lookup returns the build-side positions matching key k, in build-side
// insertion order.
func (jt *joinTable) lookup(k int64) []int32 { return jt.parts[radixOf(k, jt.bits)][k] }

// radixOf maps a join key to its partition with a Fibonacci hash of the
// top bits, so clustered key ranges still spread across partitions.
func radixOf(k int64, bits uint) int {
	if bits == 0 {
		return 0
	}
	return int((uint64(k) * 0x9E3779B97F4A7C15) >> (64 - bits))
}

// probeRange probes rows [start, end) of the probe side against the
// hash table, returning matches in probe order (and, per probe key,
// build order).
func probeRange(jt *joinTable, probe *Result, start, end int, swap bool) []JoinRow {
	var out []JoinRow
	for i := start; i < end; i++ {
		k := probe.Values[i]
		p := probe.Rows[i]
		for _, b := range jt.lookup(k) {
			row := JoinRow{Key: k}
			if swap {
				row.Left, row.Right = p, b
			} else {
				row.Left, row.Right = b, p
			}
			out = append(out, row)
		}
	}
	return out
}

// JoinPrecision reports the §2.3 metrics lifted to join results: pairs
// returned, pairs missed because at least one side forgot its tuple,
// and the precision ratio. It is one HashJoin under ScanAll: rf counts
// its pairs whose left and right tuples are both active — exactly the
// ScanActive join, which is the ScanAll join restricted to active
// tuples on both sides — and mf the rest. ctx, sp and par are
// HashJoin's.
func JoinPrecision(ctx context.Context, sp *sched.Pool, left *table.Table, leftCol string, right *table.Table, rightCol string, pred expr.Expr, par int) (rf, mf int, pf float64, err error) {
	all, err := HashJoin(ctx, sp, left, leftCol, right, rightCol, pred, ScanAll, par)
	if err != nil {
		return 0, 0, 0, err
	}
	la, ra := left.Active(), right.Active()
	for _, p := range all.Rows {
		if la.Test(int(p.Left)) && ra.Test(int(p.Right)) {
			rf++
		}
	}
	if all.Count() == 0 {
		return 0, 0, 1, nil
	}
	return rf, all.Count() - rf, float64(rf) / float64(all.Count()), nil
}
