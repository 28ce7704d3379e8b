package engine

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"amnesiadb/internal/engine/sched"
	"amnesiadb/internal/expr"
	"amnesiadb/internal/table"
	"amnesiadb/internal/xrand"
)

// widePool is a dedicated pool wider than a small runner's core count:
// forced worker counts are clamped to the pool's width, so tests that
// want up to eight workers really interleaving bring their own.
func widePool(t testing.TB) *sched.Pool {
	p := sched.New(8)
	t.Cleanup(p.Close)
	return p
}

// joinTestTables builds two tables with overlapping duplicate-heavy key
// sets and a scattering of forgotten tuples on both sides — the cases
// where build order, swap choice and amnesia interact.
func joinTestTables(t *testing.T, nl, nr int) (*table.Table, *table.Table) {
	t.Helper()
	src := xrand.New(7)
	mk := func(name string, n int) *table.Table {
		tb := table.New(name, "k")
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = src.Int63n(int64(n/4 + 1)) // ~4 duplicates per key
		}
		if _, err := tb.AppendSingleColumn(vals); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i += 3 {
			tb.Forget(i)
		}
		return tb
	}
	return mk("l", nl), mk("r", nr)
}

// TestHashJoinParallelEquivalence pins the acceptance criterion: the
// parallel join returns byte-identical results to the serial one — same
// pairs, same order — across swap directions, predicates, scan modes and
// forgotten tuples.
func TestHashJoinParallelEquivalence(t *testing.T) {
	pool := widePool(t)
	l, r := joinTestTables(t, 40000, 9000)
	// big's active probe side (~146K rows) spans multiple probeMorselRows
	// morsels, so the per-morsel output slot concatenation actually runs
	// multi-slot.
	big, bigR := joinTestTables(t, 220000, 9000)
	cases := []struct {
		name        string
		left, right *table.Table
		pred        expr.Expr
		mode        ScanMode
	}{
		{"probe_bigger", r, l, nil, ScanActive}, // build = left
		{"build_bigger", l, r, nil, ScanActive}, // swap kicks in
		{"predicate", l, r, expr.NewRange(100, 2000), ScanActive},
		{"scan_all", l, r, nil, ScanAll},
		{"multi_morsel_probe", big, bigR, nil, ScanActive},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial, err := HashJoin(context.Background(), pool, tc.left, "k", tc.right, "k", tc.pred, tc.mode, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{2, 4, 8} {
				got, err := HashJoin(context.Background(), pool, tc.left, "k", tc.right, "k", tc.pred, tc.mode, par)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(serial.Rows, got.Rows) {
					t.Fatalf("par=%d: %d pairs diverge from serial %d pairs", par, got.Count(), serial.Count())
				}
			}
			if serial.Count() == 0 {
				t.Fatal("degenerate case: serial join empty")
			}
		})
	}
}

// TestHashJoinParallelEmptySides covers the zero-row edges the scheduler
// must not trip over.
func TestHashJoinParallelEmptySides(t *testing.T) {
	pool := widePool(t)
	l := tblNamed(t, "l", 1, 2, 3)
	empty := table.New("e", "k")
	for _, par := range []int{1, 4} {
		res, err := HashJoin(context.Background(), pool, l, "k", empty, "k", nil, ScanActive, par)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count() != 0 {
			t.Fatalf("par=%d: join with empty side returned %d pairs", par, res.Count())
		}
	}
}

// TestJoinPrecisionParallelEquivalence checks the lifted §2.3 metrics
// match between the serial and parallel paths.
func TestJoinPrecisionParallelEquivalence(t *testing.T) {
	pool := widePool(t)
	l, r := joinTestTables(t, 20000, 5000)
	rf1, mf1, pf1, err := JoinPrecision(context.Background(), pool, l, "k", r, "k", nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	rf4, mf4, pf4, err := JoinPrecision(context.Background(), pool, l, "k", r, "k", nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rf1 != rf4 || mf1 != mf4 || pf1 != pf4 {
		t.Fatalf("precision diverges: serial (%d, %d, %v) vs parallel (%d, %d, %v)", rf1, mf1, pf1, rf4, mf4, pf4)
	}
	if mf1 == 0 {
		t.Fatal("degenerate case: nothing forgotten")
	}
}

// TestHashJoinParallelTinyBuildSide is the regression for the radix
// build's chunk-bounds panic: a build side barely larger than the
// worker count used to make ceil-division chunk starts overrun the key
// slice.
func TestHashJoinParallelTinyBuildSide(t *testing.T) {
	pool := widePool(t)
	probe := tblNamed(t, "p", 1, 2, 3, 1, 2, 3, 4, 5, 4, 5)
	for _, buildKeys := range [][]int64{{1}, {1, 2}, {1, 2, 3}, {1, 2, 3, 4, 5}} {
		build := tblNamed(t, "b", buildKeys...)
		serial, err := HashJoin(context.Background(), pool, probe, "k", build, "k", nil, ScanActive, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 3, 4, 8} {
			got, err := HashJoin(context.Background(), pool, probe, "k", build, "k", nil, ScanActive, par)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial.Rows, got.Rows) {
				t.Fatalf("build=%v par=%d diverges from serial", buildKeys, par)
			}
		}
	}
}

// TestHashJoinMispredictedBuildSide pins the build-while-collect
// fallback: the pipelined join guesses the build side from visible
// tuple counts before scanning, but a selective predicate can make the
// other side the true (smaller-qualifying) build. The guess is a
// performance hint only — the output must still be byte-identical to
// the serial join, which decides by exact qualifying counts.
func TestHashJoinMispredictedBuildSide(t *testing.T) {
	pool := widePool(t)
	src := xrand.New(11)
	// Left is visibly bigger (so the pipeline scatters the right side
	// speculatively) but almost nothing on the left qualifies, making
	// left the true build side.
	lvals := make([]int64, 30000)
	for i := range lvals {
		lvals[i] = 100000 + src.Int63n(100000) // outside the predicate
	}
	for i := 0; i < 200; i++ {
		lvals[i*37] = src.Int63n(500) // the few qualifying left keys
	}
	rvals := make([]int64, 8000)
	for i := range rvals {
		rvals[i] = src.Int63n(500) // all inside the predicate
	}
	l := tblNamed(t, "l", lvals...)
	r := tblNamed(t, "r", rvals...)
	pred := expr.NewRange(0, 500)
	if joinSize(l, ScanActive) <= joinSize(r, ScanActive) {
		t.Fatal("test setup: left must be visibly bigger to force the misprediction")
	}
	serial, err := HashJoin(context.Background(), pool, l, "k", r, "k", pred, ScanActive, 1)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Count() == 0 {
		t.Fatal("degenerate case: no pairs")
	}
	for _, par := range []int{2, 4, 8} {
		got, err := HashJoin(context.Background(), pool, l, "k", r, "k", pred, ScanActive, par)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial.Rows, got.Rows) {
			t.Fatalf("par=%d: mispredicted build diverges from serial (%d vs %d pairs)",
				par, got.Count(), serial.Count())
		}
	}
}

// TestHashJoinCtxCancel pins request-scoped teardown: a context
// cancelled mid-collection aborts the join with the cancellation error
// and leaks no goroutines.
func TestHashJoinCtxCancel(t *testing.T) {
	pool := widePool(t)
	l, r := joinTestTables(t, 200000, 150000)
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the collections even start
	if _, err := HashJoin(ctx, pool, l, "k", r, "k", nil, ScanActive, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("join under cancelled ctx = %v, want context.Canceled", err)
	}
	waitGoroutines(t, baseline)
}
