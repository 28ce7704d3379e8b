package engine

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"amnesiadb/internal/expr"
	"amnesiadb/internal/table"
	"amnesiadb/internal/xrand"
)

// rowSelect is the pre-vectorization row-at-a-time Select, kept here as
// the semantic reference the batch pipeline must reproduce exactly.
func rowSelect(t *table.Table, col string, pred expr.Expr, mode ScanMode) *Result {
	c := t.MustColumn(col)
	res := &Result{}
	for i := 0; i < c.Len(); i++ {
		if mode == ScanActive && !t.IsActive(i) {
			continue
		}
		if v := c.Get(i); pred.Eval(v) {
			res.Rows = append(res.Rows, int32(i))
			res.Values = append(res.Values, v)
		}
	}
	return res
}

// rowAggregate is the row-at-a-time aggregate reference.
func rowAggregate(t *table.Table, col string, pred expr.Expr, mode ScanMode) *AggResult {
	sel := rowSelect(t, col, pred, mode)
	if len(sel.Rows) == 0 {
		return nil
	}
	agg := &AggResult{Min: math.MaxInt64, Max: math.MinInt64}
	for _, v := range sel.Values {
		agg.Rows++
		agg.Sum += v
		if v < agg.Min {
			agg.Min = v
		}
		if v > agg.Max {
			agg.Max = v
		}
	}
	agg.Avg = float64(agg.Sum) / float64(agg.Rows)
	return agg
}

// rowGroupBy is the row-at-a-time grouped-aggregation reference.
func rowGroupBy(t *table.Table, col string, pred expr.Expr, mode ScanMode, width int64) []Group {
	sel := rowSelect(t, col, pred, mode)
	byKey := make(map[int64]*Group)
	for _, v := range sel.Values {
		key := v
		if width > 0 {
			key = v / width * width
			if v < 0 && v%width != 0 {
				key -= width
			}
		}
		g, ok := byKey[key]
		if !ok {
			g = &Group{Key: key, Min: math.MaxInt64, Max: math.MinInt64}
			byKey[key] = g
		}
		g.Rows++
		g.Sum += v
		if v < g.Min {
			g.Min = v
		}
		if v > g.Max {
			g.Max = v
		}
	}
	out := make([]Group, 0, len(byKey))
	for _, g := range byKey {
		g.Avg = float64(g.Sum) / float64(g.Rows)
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// vectorTable builds a multi-block table with ~40% of tuples forgotten.
func vectorTable(t *testing.T, n int, domain int64, seed uint64) *table.Table {
	t.Helper()
	src := xrand.New(seed)
	tb := table.New("t", "a")
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = src.Int63n(domain)
	}
	if _, err := tb.AppendSingleColumn(vals); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if src.Bool(0.4) {
			tb.Forget(i)
		}
	}
	return tb
}

// vectorPreds is the predicate matrix the equivalence tests sweep: exact
// bounds (pure range scans), inexact bounds (filter kernel engaged), and
// the interface fallback shapes.
var vectorPreds = []expr.Expr{
	expr.True{},
	expr.NewRange(100, 5000),
	expr.NewRange(0, 1),
	expr.Cmp{Op: expr.EQ, Val: 137},
	expr.Cmp{Op: expr.NE, Val: 137},
	expr.Cmp{Op: expr.GE, Val: 9000},
	expr.And{L: expr.Cmp{Op: expr.GE, Val: 1000}, R: expr.Cmp{Op: expr.LT, Val: 2000}},
	expr.Or{L: expr.Cmp{Op: expr.LT, Val: 50}, R: expr.Cmp{Op: expr.GT, Val: 9950}},
	expr.Not{X: expr.NewRange(2000, 8000)},
}

// TestVectorizedSelectMatchesRowAtATime sweeps sizes crossing batch and
// block boundaries and compares the batch pipeline against the reference
// for both scan modes.
func TestVectorizedSelectMatchesRowAtATime(t *testing.T) {
	for _, n := range []int{0, 1, 100, BatchSize - 1, BatchSize, BatchSize + 1, 3*BatchSize + 17} {
		tb := vectorTable(t, n, 10000, uint64(n)+3)
		ex := NewSilent(tb)
		for _, pred := range vectorPreds {
			for _, mode := range []ScanMode{ScanActive, ScanAll} {
				got, err := ex.Select("a", pred, mode)
				if err != nil {
					t.Fatal(err)
				}
				want := rowSelect(tb, "a", pred, mode)
				if !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(got.Values, want.Values) {
					t.Fatalf("n=%d pred=%s mode=%s: vectorized Select diverged (%d vs %d rows)",
						n, pred, mode, got.Count(), want.Count())
				}
			}
		}
	}
}

func TestVectorizedAggregateMatchesRowAtATime(t *testing.T) {
	tb := vectorTable(t, 3*BatchSize+5, 10000, 11)
	ex := NewSilent(tb)
	for _, pred := range vectorPreds {
		for _, mode := range []ScanMode{ScanActive, ScanAll} {
			got, err := ex.Aggregate("a", pred, mode)
			want := rowAggregate(tb, "a", pred, mode)
			if want == nil {
				if err != ErrNoRows {
					t.Fatalf("pred=%s mode=%s: want ErrNoRows, got %v", pred, mode, err)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pred=%s mode=%s: aggregate diverged: got %+v want %+v", pred, mode, got, want)
			}
		}
	}
}

// accessCounts snapshots the table's access-count vector.
func accessCounts(tb *table.Table) []uint32 {
	out := make([]uint32, tb.Len())
	for i := range out {
		out[i] = tb.AccessCount(i)
	}
	return out
}

// TestAggregateTouchesOnFeedbackPath checks a touching executor feeds
// the §3.2 strategies exactly the rows a Select would, while silent and
// ScanAll aggregates touch nothing.
func TestAggregateTouchesOnFeedbackPath(t *testing.T) {
	pred := expr.NewRange(100, 800)
	ref := vectorTable(t, BatchSize+33, 1000, 31)
	if _, err := New(ref).Select("a", pred, ScanActive); err != nil {
		t.Fatal(err)
	}
	want := accessCounts(ref)

	tb := vectorTable(t, BatchSize+33, 1000, 31)
	untouched := accessCounts(tb)
	if _, err := NewSilent(tb).Aggregate("a", pred, ScanActive); err != nil {
		t.Fatal(err)
	}
	if _, err := New(tb).Aggregate("a", pred, ScanAll); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(accessCounts(tb), untouched) {
		t.Fatal("silent or ScanAll aggregate touched access counts")
	}
	if _, err := New(tb).Aggregate("a", pred, ScanActive); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(accessCounts(tb), want) {
		t.Fatal("feedback-path aggregate's access counts diverge from Select's")
	}
}

func TestVectorizedGroupByMatchesRowAtATime(t *testing.T) {
	tb := vectorTable(t, 2*BatchSize+77, 500, 13)
	ex := NewSilent(tb)
	for _, pred := range vectorPreds {
		for _, width := range []int64{0, 7, 100} {
			got, err := ex.GroupBy("a", pred, ScanActive, width)
			if err != nil {
				t.Fatal(err)
			}
			want := rowGroupBy(tb, "a", pred, ScanActive, width)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pred=%s width=%d: groupby diverged: got %d groups want %d", pred, width, len(got), len(want))
			}
		}
	}
}

func TestVectorizedJoinMatchesRowAtATime(t *testing.T) {
	left := vectorTable(t, BatchSize+100, 300, 17)
	right := vectorTable(t, 2*BatchSize, 300, 19)
	for _, pred := range []expr.Expr{nil, expr.NewRange(10, 200), expr.Not{X: expr.NewRange(0, 150)}} {
		for _, mode := range []ScanMode{ScanActive, ScanAll} {
			got, err := HashJoin(context.Background(), nil, left, "a", right, "a", pred, mode, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Reference: nested loops over the row-at-a-time selections.
			p := pred
			if p == nil {
				p = expr.True{}
			}
			l := rowSelect(left, "a", p, mode)
			r := rowSelect(right, "a", p, mode)
			var want []JoinRow
			byKey := make(map[int64][]int32)
			for i, row := range l.Rows {
				byKey[l.Values[i]] = append(byKey[l.Values[i]], row)
			}
			for i, rr := range r.Rows {
				for _, lr := range byKey[r.Values[i]] {
					want = append(want, JoinRow{Left: lr, Right: rr, Key: r.Values[i]})
				}
			}
			sortJoin := func(rows []JoinRow) {
				sort.Slice(rows, func(i, j int) bool {
					if rows[i].Left != rows[j].Left {
						return rows[i].Left < rows[j].Left
					}
					return rows[i].Right < rows[j].Right
				})
			}
			sortJoin(got.Rows)
			sortJoin(want)
			if len(got.Rows) != len(want) {
				t.Fatalf("pred=%v mode=%s: join size %d, want %d", pred, mode, len(got.Rows), len(want))
			}
			for i := range want {
				if got.Rows[i] != want[i] {
					t.Fatalf("pred=%v mode=%s: pair %d = %+v, want %+v", pred, mode, i, got.Rows[i], want[i])
				}
			}
		}
	}
}

// TestMaxInt64RowsAreScannable regression-tests the inclusive-infinity
// bound convention: rows holding math.MaxInt64 must be reachable by
// open-ended predicates (GE, GT, NE, True), which a strictly half-open
// scan interval could never admit.
func TestMaxInt64RowsAreScannable(t *testing.T) {
	tb := table.New("t", "a")
	if _, err := tb.AppendSingleColumn([]int64{5, math.MaxInt64, 10, math.MaxInt64}); err != nil {
		t.Fatal(err)
	}
	ex := NewSilent(tb)
	cases := []struct {
		pred expr.Expr
		want int
	}{
		{expr.True{}, 4},
		{expr.Cmp{Op: expr.GE, Val: 10}, 3},
		{expr.Cmp{Op: expr.GT, Val: 10}, 2},
		{expr.Cmp{Op: expr.GE, Val: math.MaxInt64}, 2},
		{expr.Cmp{Op: expr.EQ, Val: math.MaxInt64}, 2},
		{expr.Cmp{Op: expr.NE, Val: 5}, 3},
		{expr.Cmp{Op: expr.LE, Val: math.MaxInt64}, 4},
		{expr.Cmp{Op: expr.LT, Val: math.MaxInt64}, 2},
		{expr.Not{X: expr.NewRange(0, 11)}, 2},
	}
	for _, tc := range cases {
		res, err := ex.Select("a", tc.pred, ScanAll)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count() != tc.want {
			t.Errorf("%s: got %d rows, want %d", tc.pred, res.Count(), tc.want)
		}
		// The counting path must agree with the materializing path.
		if agg, err := ex.Aggregate("a", tc.pred, ScanAll); err != nil {
			t.Errorf("%s: aggregate: %v", tc.pred, err)
		} else if agg.Rows != tc.want {
			t.Errorf("%s: aggregate counted %d rows, want %d", tc.pred, agg.Rows, tc.want)
		}
	}
	// Precision's ground-truth counting pass must see MaxInt64 rows too.
	tb.Forget(1)
	rf, mf, _, err := New(tb).Precision("a", expr.Cmp{Op: expr.GE, Val: math.MaxInt64})
	if err != nil {
		t.Fatal(err)
	}
	if rf != 1 || mf != 1 {
		t.Fatalf("precision over MaxInt64 rows: rf=%d mf=%d, want 1/1", rf, mf)
	}
}

// TestTouchFeedbackMatchesResult checks the batched touch flush covers
// exactly the returned rows — the §3.2 feedback loop must see the same
// access counts the row-at-a-time engine produced.
func TestTouchFeedbackMatchesResult(t *testing.T) {
	tb := vectorTable(t, BatchSize+50, 1000, 23)
	ex := New(tb)
	pred := expr.NewRange(100, 600)
	res, err := ex.Select("a", pred, ScanActive)
	if err != nil {
		t.Fatal(err)
	}
	inResult := make(map[int32]bool, res.Count())
	for _, r := range res.Rows {
		inResult[r] = true
	}
	for i := 0; i < tb.Len(); i++ {
		want := uint32(0)
		if inResult[int32(i)] {
			want = 1
		}
		if got := tb.AccessCount(i); got != want {
			t.Fatalf("tuple %d: access count %d, want %d", i, got, want)
		}
	}
	// ScanAll never touches.
	if _, err := ex.Select("a", pred, ScanAll); err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if tb.AccessCount(int(r)) != 1 {
			t.Fatal("ScanAll perturbed access counts")
		}
	}
}

// TestConcurrentReadersShareExecutor proves one Exec serves parallel
// ScanActive queries safely (run with -race): results stay
// self-consistent and the touch flushes do not corrupt counts.
func TestConcurrentReadersShareExecutor(t *testing.T) {
	tb := vectorTable(t, 4*BatchSize, 10000, 29)
	ex := New(tb)
	pred := expr.NewRange(1000, 9000)
	want, err := NewSilent(tb).Select("a", pred, ScanActive)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				res, err := ex.Select("a", pred, ScanActive)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(res.Rows, want.Rows) {
					errs <- errDiverged
					return
				}
				if _, err := ex.Aggregate("a", pred, ScanActive); err != nil {
					errs <- err
					return
				}
				if _, _, _, err := ex.Precision("a", pred); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Each matching tuple was touched once per Select and once per
	// Aggregate and once per Precision's active pass: 3 * workers * rounds.
	wantCount := uint32(3 * workers * rounds)
	for _, r := range want.Rows {
		if got := tb.AccessCount(int(r)); got != wantCount {
			t.Fatalf("tuple %d: access count %d, want %d", r, got, wantCount)
		}
	}
}

var errDiverged = errors.New("engine: concurrent select diverged")
