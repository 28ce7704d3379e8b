package engine

// One matrix for the one dispatcher: every operator, at every
// parallelism knob, on the default and on a dedicated pool, in both scan
// modes, must equal the row-at-a-time oracles of vector_test.go, touch
// exactly the rows a Select of the same predicate returns, and leave
// the engine quiescent — as must a query cancelled at its first, middle
// or last morsel.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"amnesiadb/internal/engine/governor"
	"amnesiadb/internal/engine/sched"
	"amnesiadb/internal/expr"
	"amnesiadb/internal/table"
	"amnesiadb/internal/xrand"
)

// matrixRows spans three morsels and a ragged fourth, so every worker
// count above one genuinely splits the scan.
const matrixRows = 3*MorselBlocks*BatchSize + 777

var matrixPars = []int{1, 2, 0, 64}

// matrixPools returns the pool axis: nil (the dispatcher resolves it to
// sched.Default()) and a dedicated four-wide pool, wide enough that
// forced worker counts interleave on a one- or two-core runner.
func matrixPools(t *testing.T) map[string]*sched.Pool {
	dedicated := sched.New(4)
	t.Cleanup(dedicated.Close)
	return map[string]*sched.Pool{"default": nil, "dedicated": dedicated}
}

// quiescent asserts what must hold after any query, finished or
// cancelled: nothing attached to or running on the pool, every batch
// handed out since mark back in it, and no goroutine left behind.
func quiescent(t *testing.T, pool *sched.Pool, mark batchMark, baseline int) {
	t.Helper()
	if st := poolOf(pool).Stats(); st.Queries != 0 || st.Running != 0 {
		t.Fatalf("pool not idle after the query: %+v", st)
	}
	if n := mark.outstanding(); n != 0 {
		t.Fatalf("%d pooled batches handed out and never returned", n)
	}
	waitGoroutines(t, baseline)
}

// rowJoin is the row-at-a-time join reference over two row-at-a-time
// selections, in the engine's documented output order: the smaller
// qualifying side builds (the left on a tie), pairs come in probe-side
// position order and, per probe row, in build-side position order.
func rowJoin(l, r *Result) []JoinRow {
	swap := l.Count() > r.Count()
	build, probe := l, r
	if swap {
		build, probe = r, l
	}
	byKey := make(map[int64][]int32)
	for i, row := range build.Rows {
		byKey[build.Values[i]] = append(byKey[build.Values[i]], row)
	}
	var out []JoinRow
	for i, p := range probe.Rows {
		for _, b := range byKey[probe.Values[i]] {
			if swap {
				out = append(out, JoinRow{Left: p, Right: b, Key: probe.Values[i]})
			} else {
				out = append(out, JoinRow{Left: b, Right: p, Key: probe.Values[i]})
			}
		}
	}
	return out
}

func TestOperatorMatrixMatchesRowOracles(t *testing.T) {
	tb := vectorTable(t, matrixRows, 10000, 41)
	preds := map[string]expr.Expr{
		"exact":   expr.NewRange(100, 5000),
		"inexact": expr.Not{X: expr.NewRange(2000, 8000)},
	}
	modes := []ScanMode{ScanActive, ScanAll}

	// The oracles, once per predicate and mode.
	type key struct {
		pred string
		mode ScanMode
	}
	sel, agg := map[key]*Result{}, map[key]*AggResult{}
	byValue, byBucket := map[key][]Group{}, map[key][]Group{}
	for name, pred := range preds {
		for _, mode := range modes {
			k := key{name, mode}
			sel[k] = rowSelect(tb, "a", pred, mode)
			agg[k] = rowAggregate(tb, "a", pred, mode)
			byValue[k] = rowGroupBy(tb, "a", pred, mode, 0)
			byBucket[k] = rowGroupBy(tb, "a", pred, mode, 300)
		}
	}
	// touched is the access-count delta a touching ScanActive operator
	// owes: one per row of the oracle's active selection.
	touched := func(pred string, mode ScanMode, touching bool) []uint32 {
		delta := make([]uint32, tb.Len())
		if touching && mode == ScanActive {
			for _, r := range sel[key{pred, ScanActive}].Rows {
				delta[r]++
			}
		}
		return delta
	}

	type op struct {
		name string
		// run executes the operator and compares it with the oracle.
		run func(t *testing.T, ex *Exec, pred string, mode ScanMode)
		// precision operators ignore the mode axis (they run both).
		bothModes bool
	}
	ops := []op{
		{name: "select", run: func(t *testing.T, ex *Exec, pred string, mode ScanMode) {
			got, err := ex.Select("a", preds[pred], mode)
			if err != nil {
				t.Fatal(err)
			}
			want := sel[key{pred, mode}]
			if !slices.Equal(got.Rows, want.Rows) || !slices.Equal(got.Values, want.Values) {
				t.Fatalf("select diverged from the row oracle: %d rows, want %d", got.Count(), want.Count())
			}
		}},
		{name: "aggregate", run: func(t *testing.T, ex *Exec, pred string, mode ScanMode) {
			got, err := ex.Aggregate("a", preds[pred], mode)
			if err != nil {
				t.Fatal(err)
			}
			if want := agg[key{pred, mode}]; !reflect.DeepEqual(got, want) {
				t.Fatalf("aggregate = %+v, want %+v", got, want)
			}
		}},
		{name: "precision", bothModes: true, run: func(t *testing.T, ex *Exec, pred string, _ ScanMode) {
			rf, mf, pf, err := ex.Precision("a", preds[pred])
			if err != nil {
				t.Fatal(err)
			}
			wantRF := sel[key{pred, ScanActive}].Count()
			wantMF := sel[key{pred, ScanAll}].Count() - wantRF
			if rf != wantRF || mf != wantMF || pf != float64(wantRF)/float64(wantRF+wantMF) {
				t.Fatalf("precision = (%d, %d, %v), want (%d, %d)", rf, mf, pf, wantRF, wantMF)
			}
		}},
		{name: "groupby_value", run: func(t *testing.T, ex *Exec, pred string, mode ScanMode) {
			got, err := ex.GroupByValue("a", preds[pred], mode)
			if err != nil {
				t.Fatal(err)
			}
			if want := byValue[key{pred, mode}]; !slices.Equal(got, want) {
				t.Fatalf("group-by value: %d groups, want %d", len(got), len(want))
			}
		}},
		{name: "groupby_bucket", run: func(t *testing.T, ex *Exec, pred string, mode ScanMode) {
			got, err := ex.GroupByBucket("a", preds[pred], mode, 300)
			if err != nil {
				t.Fatal(err)
			}
			if want := byBucket[key{pred, mode}]; !slices.Equal(got, want) {
				t.Fatalf("group-by bucket: %d groups, want %d", len(got), len(want))
			}
		}},
	}

	for poolName, pool := range matrixPools(t) {
		baseline := runtime.NumGoroutine()
		for _, par := range matrixPars {
			for _, o := range ops {
				for pred := range preds {
					for _, mode := range modes {
						if o.bothModes && mode == ScanAll {
							continue
						}
						for _, touching := range []bool{true, false} {
							name := fmt.Sprintf("%s/pool=%s/par=%d/%s/%s/touch=%v", o.name, poolName, par, pred, mode, touching)
							t.Run(name, func(t *testing.T) {
								ex := NewSilent(tb)
								if touching {
									ex = New(tb)
								}
								ex.SetParallelism(par)
								ex.SetScheduler(pool)
								before, mark := accessCounts(tb), markBatches()
								o.run(t, ex, pred, mode)
								after, want := accessCounts(tb), touched(pred, mode, touching)
								for i := range after {
									if after[i]-before[i] != want[i] {
										t.Fatalf("row %d touched %d times, want %d", i, after[i]-before[i], want[i])
									}
								}
								quiescent(t, pool, mark, baseline)
							})
						}
					}
				}
			}
		}
	}
}

func TestJoinMatrixMatchesRowOracle(t *testing.T) {
	src := xrand.New(43)
	mk := func(name string, n int, gen func(i int) int64) *table.Table {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = gen(i)
		}
		tb := tblNamed(t, name, vals...)
		for i := 0; i < n; i += 3 {
			tb.Forget(i)
		}
		return tb
	}
	dup := func(n int) func(int) int64 { return func(int) int64 { return src.Int63n(int64(n/4 + 1)) } }
	// Mispredicted build: the left is visibly bigger, so the right's
	// scatter starts speculatively, but next to nothing on the left
	// qualifies and it is the true build side.
	sparseLeft := mk("l", 30000, func(i int) int64 {
		if i%37 == 1 {
			return src.Int63n(500)
		}
		return 100000 + src.Int63n(100000)
	})
	shapes := []struct {
		name        string
		left, right *table.Table
		pred        expr.Expr
	}{
		{"probe_bigger", mk("l", 9000, dup(9000)), mk("r", 40000, dup(9000)), nil},
		{"build_bigger", mk("l", 40000, dup(9000)), mk("r", 9000, dup(9000)), expr.NewRange(100, 2000)},
		{"multi_morsel_probe", mk("l", 150000, dup(9000)), mk("r", 9000, dup(9000)), nil},
		{"mispredicted_build", sparseLeft, mk("r", 8000, func(int) int64 { return src.Int63n(500) }), expr.NewRange(0, 500)},
		{"tiny_build", tblNamed(t, "p", 1, 2, 3, 1, 2, 3, 4, 5, 4, 5), tblNamed(t, "b", 1, 2, 3), nil},
		{"empty_side", tblNamed(t, "l", 1, 2, 3), table.New("e", "k"), nil},
	}
	for poolName, pool := range matrixPools(t) {
		baseline := runtime.NumGoroutine()
		for _, sh := range shapes {
			pred := sh.pred
			if pred == nil {
				pred = expr.True{}
			}
			for _, mode := range []ScanMode{ScanActive, ScanAll} {
				want := rowJoin(rowSelect(sh.left, "k", pred, mode), rowSelect(sh.right, "k", pred, mode))
				for _, par := range matrixPars {
					t.Run(fmt.Sprintf("%s/pool=%s/par=%d/%s", sh.name, poolName, par, mode), func(t *testing.T) {
						before, mark := accessCounts(sh.left), markBatches()
						got, err := HashJoin(context.Background(), pool, sh.left, "k", sh.right, "k", sh.pred, mode, par)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got.Rows, want) {
							t.Fatalf("join diverged from the row oracle: %d pairs, want %d", got.Count(), len(want))
						}
						if !slices.Equal(accessCounts(sh.left), before) {
							t.Fatal("join touched access counts")
						}
						quiescent(t, pool, mark, baseline)
					})
				}
			}
		}
	}
}

// cancelAt is an inexact predicate accepting everything that cancels
// its query on its n-th evaluation — the morsel that row falls in is
// where the query is cancelled.
type cancelAt struct {
	n      int64
	evals  *atomic.Int64
	cancel context.CancelFunc
}

func (p cancelAt) Eval(int64) bool {
	if p.evals.Add(1) == p.n {
		p.cancel()
	}
	return true
}
func (cancelAt) Bounds() (int64, int64, bool) { return math.MinInt64, math.MaxInt64, false }
func (cancelAt) String() string               { return "cancelAt" }

// TestCancelLeavesEngineQuiescent cancels a scan, a stream, a
// multi-part stream, a join and a shard-style aggregate fan-out at
// their first, middle and last morsel. A query cancelled that late may
// finish instead of failing; either way nothing may be left attached,
// running, checked out of the batch pool, charged to the quota or alive
// as a goroutine.
func TestCancelLeavesEngineQuiescent(t *testing.T) {
	tb := vectorTable(t, matrixRows, 10000, 47)
	other := vectorTable(t, matrixRows/2, 10000, 53)
	gov := governor.New(0)
	settled := func(t *testing.T, err error) {
		t.Helper()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled query failed with %v, want context.Canceled or completion", err)
		}
	}
	kinds := []struct {
		name string
		rows int // evaluations a full run makes, for placing the cancel
		run  func(ctx context.Context, pool *sched.Pool, par int, pred expr.Expr) error
	}{
		{"scan", tb.Len(), func(ctx context.Context, pool *sched.Pool, par int, pred expr.Expr) error {
			ex := New(tb).WithContext(ctx)
			ex.SetParallelism(par)
			ex.SetScheduler(pool)
			_, err := ex.Select("a", pred, ScanAll)
			return err
		}},
		{"stream", tb.Len(), func(ctx context.Context, pool *sched.Pool, par int, pred expr.Expr) error {
			ex := New(tb)
			ex.SetParallelism(par)
			ex.SetScheduler(pool)
			st, err := ex.SelectChunkStream(ctx, "a", pred, ScanAll)
			if err != nil {
				return err
			}
			for {
				c, ok, err := st.Next()
				if !ok {
					return err
				}
				RecycleChunk(c)
			}
		}},
		{"join", tb.Len() + other.Len(), func(ctx context.Context, pool *sched.Pool, par int, pred expr.Expr) error {
			_, err := HashJoin(ctx, pool, tb, "a", other, "a", pred, ScanAll, par)
			return err
		}},
		{"parts", 8 * other.Len(), func(ctx context.Context, pool *sched.Pool, par int, pred expr.Expr) error {
			// One stream over eight parts, the way partition.Set scans:
			// its chunks are pooled and charged like a flat scan's.
			ex := New(tb)
			ex.SetParallelism(par)
			ex.SetScheduler(pool)
			parts := []*table.Table{other, other, other, other, other, other, other, other}
			st, err := ex.SelectPartsChunkStream(ctx, parts, "a", pred, ScanAll)
			if err != nil {
				return err
			}
			chunks, err := st.Collect()
			recycleChunks(chunks)
			return err
		}},
		{"fanout", 8 * other.Len(), func(ctx context.Context, pool *sched.Pool, par int, pred expr.Expr) error {
			// Eight shard-sized tasks, each a barrier Aggregate nested
			// inside the fan-out's pool step, the way partition.Set's
			// Aggregate and Precision fan out.
			errs := make([]error, 8)
			err := ForEachTask(ctx, pool, Workers(pool, par, 8, 0), 8, func(_, i int) {
				ex := NewSilent(other).WithContext(ctx)
				ex.SetParallelism(1)
				ex.SetScheduler(pool)
				_, errs[i] = ex.Aggregate("a", pred, ScanAll)
			})
			return errors.Join(append(errs, err)...)
		}},
	}
	for poolName, pool := range matrixPools(t) {
		baseline := runtime.NumGoroutine()
		for _, k := range kinds {
			for _, par := range []int{1, 4} {
				for where, at := range map[string]int{"first": 1, "middle": k.rows / 2, "last": k.rows} {
					t.Run(fmt.Sprintf("%s/pool=%s/par=%d/%s", k.name, poolName, par, where), func(t *testing.T) {
						quota := gov.NewQuota(0)
						defer gov.Remove(quota)
						ctx, cancel := context.WithCancel(governor.WithQuota(context.Background(), quota))
						defer cancel()
						mark := markBatches()
						pred := cancelAt{n: int64(at), evals: new(atomic.Int64), cancel: cancel}
						settled(t, k.run(ctx, pool, par, pred))
						if ctx.Err() == nil {
							t.Fatalf("predicate evaluated %d rows and never reached its cancel at %d", pred.evals.Load(), at)
						}
						if used := quota.Used(); used != 0 {
							t.Fatalf("%d bytes still charged to the quota before Remove", used)
						}
						quiescent(t, pool, mark, baseline)
					})
				}
			}
		}
	}
}

// TestHashJoinEarlyReturnDropsNothing pins the join's error paths: a
// join cancelled mid-collection and one whose right-hand column does
// not exist hand every collected chunk back and release its charge
// before returning — not when Governor.Remove sweeps the residue.
func TestHashJoinEarlyReturnDropsNothing(t *testing.T) {
	l := vectorTable(t, matrixRows, 10000, 59)
	r := vectorTable(t, matrixRows, 10000, 61)
	gov := governor.New(0)
	pool := widePool(t)
	baseline := runtime.NumGoroutine()
	for _, par := range []int{1, 4} {
		for name, tc := range map[string]struct {
			rightCol string
			cancelAt int64 // 0: never
			want     string
		}{
			// Two morsels into both sides' scans: chunks of the first
			// morsels are with the collectors by then.
			"cancelled_mid_collection": {"a", 4 * MorselBlocks * BatchSize, context.Canceled.Error()},
			// The concrete failure outranks the cancellation it induces
			// on the sibling side.
			"unknown_right_column": {"zz", 0, `unknown column "zz"`},
		} {
			t.Run(fmt.Sprintf("%s/par=%d", name, par), func(t *testing.T) {
				quota := gov.NewQuota(0)
				defer gov.Remove(quota)
				ctx, cancel := context.WithCancel(governor.WithQuota(context.Background(), quota))
				defer cancel()
				mark := markBatches()
				pred := cancelAt{n: tc.cancelAt, evals: new(atomic.Int64), cancel: cancel}
				if _, err := HashJoin(ctx, pool, l, "a", r, tc.rightCol, pred, ScanAll, par); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("err = %v, want %s", err, tc.want)
				}
				if used := quota.Used(); used != 0 {
					t.Fatalf("%d bytes still charged to the quota before Remove", used)
				}
				quiescent(t, pool, mark, baseline)
			})
		}
	}
}
