package engine

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"amnesiadb/internal/expr"
	"amnesiadb/internal/table"
	"amnesiadb/internal/xrand"
)

// TestIndexPathMatchesRowOracles is the differential suite of the
// value-order access path. A random schedule of appends (some staying in
// the index's tail, some folding it), forgetting, Remember and Vacuum
// runs over a table big enough to get an index; after every step narrow
// and wide, exact and inexact predicates go through Select, the
// concatenated chunks of SelectChunkStream and Aggregate at one and two
// workers, in both scan modes, and each answer and the whole
// access-count vector are held to the row-at-a-time oracles.
func TestIndexPathMatchesRowOracles(t *testing.T) {
	const domain = 1 << 20
	src := xrand.New(17)
	tb := table.New("t", "a")
	appendRows := func(n int) {
		vals := make([]int64, n)
		for i := range vals {
			switch src.Intn(256) {
			case 0:
				vals[i] = math.MaxInt64 // the bound-convention edge
			case 1:
				vals[i] = 777 // duplicates
			default:
				vals[i] = src.Int63n(domain)
			}
		}
		if _, err := tb.AppendSingleColumn(vals); err != nil {
			t.Fatal(err)
		}
	}
	appendRows(TaskMinRows)
	pool := matrixPools(t)["dedicated"]
	c := tb.MustColumn("a")
	var sawTail, sawFold bool

	// counts is the access-count vector the oracles say the table holds.
	var counts []uint32
	for step := 0; step < 16; step++ {
		var op string
		switch k := src.Intn(6); {
		case k == 0:
			op = "append-small"
			appendRows(1 + src.Intn(2*BatchSize))
		case k == 1:
			op = "append-fold"
			_, before, _ := c.IndexRange(0, 0)
			appendRows(TaskMinRows/2 + src.Intn(TaskMinRows))
			if _, after, ok := c.IndexRange(0, 0); ok && after > before {
				sawFold = true
			}
		case k == 2:
			op = "forget"
			for i := 0; i < tb.Len()/10; i++ {
				tb.Forget(src.Intn(tb.Len()))
			}
		case k == 3:
			op = "remember"
			for _, i := range tb.ForgottenIndices() {
				if src.Bool(0.3) {
					tb.Remember(i)
				}
			}
		case k == 4 && step > 2:
			op = "vacuum"
			tb.Vacuum()
		default:
			op = "query-only"
		}
		counts = accessCounts(tb)
		lo := src.Int63n(domain - 8000)
		// The first five are narrow enough for the index, the last two
		// scan.
		preds := []expr.Expr{
			expr.NewRange(lo, lo+1500),
			expr.And{L: expr.NewRange(lo, lo+1500), R: expr.Cmp{Op: expr.NE, Val: lo + 7}},
			expr.Cmp{Op: expr.EQ, Val: 777},
			expr.Cmp{Op: expr.GE, Val: domain - 500}, // unbounded above: MaxInt64 rows qualify
			expr.NewRange(domain-500, math.MaxInt64), // the same interval, inexact: they do not
			expr.NewRange(lo, lo+domain/4),
			expr.Not{X: expr.NewRange(lo, lo+domain/2)},
		}
		for i, pred := range preds {
			if _, indexed := planIndex(c, pred); indexed != (i < 5) {
				t.Fatalf("step %d: %s takes the index: %v", step, pred, indexed)
			}
			for _, mode := range []ScanMode{ScanActive, ScanAll} {
				want := rowSelect(tb, "a", pred, mode)
				wantAgg := rowAggregate(tb, "a", pred, mode)
				for _, workers := range []int{1, 2} {
					ex := New(tb)
					ex.SetParallelism(workers)
					ex.SetScheduler(pool)
					name := fmt.Sprintf("step %d (%s) %s %s workers=%d", step, op, pred, mode, workers)
					touches := func(what string, run func() error) {
						t.Helper()
						if err := run(); err != nil {
							t.Fatalf("%s %s: %v", name, what, err)
						}
						if mode == ScanActive {
							for _, r := range want.Rows {
								counts[r]++
							}
						}
						for i := range counts {
							if n := tb.AccessCount(i); n != counts[i] {
								t.Fatalf("%s %s: row %d access count %d, want %d", name, what, i, n, counts[i])
							}
						}
					}
					touches("select", func() error {
						got, err := ex.Select("a", pred, mode)
						if err == nil && (!slices.Equal(got.Rows, want.Rows) || !slices.Equal(got.Values, want.Values)) {
							err = fmt.Errorf("%d rows, oracle %d", got.Count(), want.Count())
						}
						return err
					})
					touches("stream", func() error {
						st, err := ex.SelectChunkStream(context.Background(), "a", pred, mode)
						if err != nil {
							return err
						}
						got := &Result{}
						for {
							ch, ok, err := st.Next()
							if err != nil {
								return err
							}
							if !ok {
								break
							}
							got.Rows = append(got.Rows, ch.Rows...)
							got.Values = append(got.Values, ch.Values...)
							RecycleChunk(ch)
						}
						if !slices.Equal(got.Rows, want.Rows) || !slices.Equal(got.Values, want.Values) {
							return fmt.Errorf("%d streamed rows, oracle %d", got.Count(), want.Count())
						}
						return nil
					})
					touches("aggregate", func() error {
						got, err := ex.Aggregate("a", pred, mode)
						if wantAgg == nil {
							if err != ErrNoRows {
								return fmt.Errorf("got %+v, %v; want ErrNoRows", got, err)
							}
							return nil
						}
						if err != nil {
							return err
						}
						for _, k := range []AggKind{Count, Sum, Avg, Min, Max} {
							if got.Value(k) != wantAgg.Value(k) {
								return fmt.Errorf("%s = %v, oracle %v", k, got.Value(k), wantAgg.Value(k))
							}
						}
						if !reflect.DeepEqual(got, wantAgg) {
							return fmt.Errorf("%+v, oracle %+v", got, wantAgg)
						}
						return nil
					})
				}
			}
		}
		if _, covered, ok := c.IndexRange(0, 0); !ok {
			t.Fatalf("step %d: narrow queries over %d rows built no index", step, tb.Len())
		} else if covered < tb.Len() {
			sawTail = true
		}
	}
	if !sawTail || !sawFold {
		t.Fatalf("schedule never exercised the tail (%v) or its fold (%v)", sawTail, sawFold)
	}
}

// TestIndexBuildRule pins who gets an index: a column of at least one
// morsel whose zone maps put a query at one batch or less. A wide query,
// or a narrow one over a smaller column, scans and builds nothing; once
// built, an index serves every query whose candidates fit a batch.
func TestIndexBuildRule(t *testing.T) {
	small := strideTable(t, TaskMinRows-1)
	if _, err := New(small).Select("a", expr.NewRange(10, 20), ScanActive); err != nil {
		t.Fatal(err)
	}
	if n := small.Stats().IndexBytes; n != 0 {
		t.Fatalf("a column below one morsel got a %d-byte index", n)
	}
	tb := strideTable(t, TaskMinRows) // values 0..n-1
	ex := New(tb)
	for _, pred := range []expr.Expr{expr.NewRange(0, BatchSize+1), expr.Cmp{Op: expr.NE, Val: 3}} {
		if _, err := ex.Aggregate("a", pred, ScanActive); err != nil {
			t.Fatal(err)
		}
	}
	if n := tb.Stats().IndexBytes; n != 0 {
		t.Fatalf("queries estimated above one batch built a %d-byte index", n)
	}
	if _, err := ex.Aggregate("a", expr.NewRange(0, BatchSize), ScanActive); err != nil {
		t.Fatal(err)
	}
	if n := tb.Stats().IndexBytes; n != 4*tb.Len() {
		t.Fatalf("a one-batch query left a %d-byte index, want 4 bytes a row (%d)", n, 4*tb.Len())
	}
	if _, ok := planIndex(tb.MustColumn("a"), expr.NewRange(0, BatchSize+1)); ok {
		t.Fatal("an index answered more candidates than one batch")
	}
	if _, ok := planIndex(tb.MustColumn("a"), expr.NewRange(5000, 5000+BatchSize)); !ok {
		t.Fatal("a built index did not answer a one-batch query")
	}
}
