package engine

import (
	"context"
	"math"
	"testing"

	"amnesiadb/internal/expr"
	"amnesiadb/internal/table"
	"amnesiadb/internal/xrand"
)

func tblNamed(t *testing.T, name string, vals ...int64) *table.Table {
	t.Helper()
	tb := table.New(name, "k")
	if _, err := tb.AppendSingleColumn(vals); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestHashJoinBasic(t *testing.T) {
	l := tblNamed(t, "l", 1, 2, 3, 4)
	r := tblNamed(t, "r", 2, 4, 4, 6)
	res, err := HashJoin(context.Background(), nil, l, "k", r, "k", nil, ScanActive, 0)
	if err != nil {
		t.Fatal(err)
	}
	// matches: 2-2 (1 pair), 4-4 twice = 3 pairs
	if res.Count() != 3 {
		t.Fatalf("pairs = %d, want 3", res.Count())
	}
	for _, row := range res.Rows {
		lv := l.MustColumn("k").Get(int(row.Left))
		rv := r.MustColumn("k").Get(int(row.Right))
		if lv != rv || lv != row.Key {
			t.Fatalf("bad pair %+v (lv=%d rv=%d)", row, lv, rv)
		}
	}
}

func TestHashJoinPredicate(t *testing.T) {
	l := tblNamed(t, "l", 1, 2, 3)
	r := tblNamed(t, "r", 1, 2, 3)
	res, err := HashJoin(context.Background(), nil, l, "k", r, "k", expr.NewRange(2, 4), ScanActive, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 2 {
		t.Fatalf("predicated join = %d pairs", res.Count())
	}
}

func TestHashJoinRespectsAmnesiaBothSides(t *testing.T) {
	l := tblNamed(t, "l", 1, 2, 3)
	r := tblNamed(t, "r", 1, 2, 3)
	l.Forget(0) // key 1 gone on the left
	r.Forget(2) // key 3 gone on the right
	res, err := HashJoin(context.Background(), nil, l, "k", r, "k", nil, ScanActive, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 1 || res.Rows[0].Key != 2 {
		t.Fatalf("amnesiac join = %+v", res.Rows)
	}
	all, err := HashJoin(context.Background(), nil, l, "k", r, "k", nil, ScanAll, 0)
	if err != nil {
		t.Fatal(err)
	}
	if all.Count() != 3 {
		t.Fatalf("complete join = %d pairs", all.Count())
	}
}

func TestHashJoinUnknownColumns(t *testing.T) {
	l := tblNamed(t, "l", 1)
	r := tblNamed(t, "r", 1)
	if _, err := HashJoin(context.Background(), nil, l, "zz", r, "k", nil, ScanActive, 0); err == nil {
		t.Fatal("bad left column accepted")
	}
	if _, err := HashJoin(context.Background(), nil, l, "k", r, "zz", nil, ScanActive, 0); err == nil {
		t.Fatal("bad right column accepted")
	}
}

func TestHashJoinBuildSideChoiceIrrelevant(t *testing.T) {
	// Same pair multiset regardless of which side is smaller.
	src := xrand.New(1)
	big := make([]int64, 500)
	small := make([]int64, 50)
	for i := range big {
		big[i] = src.Int63n(100)
	}
	for i := range small {
		small[i] = src.Int63n(100)
	}
	l := tblNamed(t, "l", big...)
	r := tblNamed(t, "r", small...)
	a, err := HashJoin(context.Background(), nil, l, "k", r, "k", nil, ScanActive, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := HashJoin(context.Background(), nil, r, "k", l, "k", nil, ScanActive, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Count() != b.Count() {
		t.Fatalf("join counts differ by direction: %d vs %d", a.Count(), b.Count())
	}
}

func TestJoinPrecision(t *testing.T) {
	// 4 matching keys; forget one left tuple: 3/4 pairs survive.
	l := tblNamed(t, "l", 1, 2, 3, 4)
	r := tblNamed(t, "r", 1, 2, 3, 4)
	l.Forget(1)
	rf, mf, pf, err := JoinPrecision(context.Background(), nil, l, "k", r, "k", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rf != 3 || mf != 1 || math.Abs(pf-0.75) > 1e-12 {
		t.Fatalf("rf=%d mf=%d pf=%v", rf, mf, pf)
	}
}

func TestJoinPrecisionCompoundsAcrossSides(t *testing.T) {
	// Join precision is roughly the product of the two sides' tuple
	// precision: forgetting half of each side leaves ~a quarter of the
	// pairs. This is the amnesia-specific hazard joins add.
	src := xrand.New(2)
	keys := make([]int64, 1000)
	for i := range keys {
		keys[i] = src.Int63n(500)
	}
	l := tblNamed(t, "l", keys...)
	r := tblNamed(t, "r", keys...)
	for i := 0; i < 1000; i += 2 {
		l.Forget(i)
		r.Forget(i + 1)
	}
	_, _, pf, err := JoinPrecision(context.Background(), nil, l, "k", r, "k", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pf < 0.15 || pf > 0.35 {
		t.Fatalf("compound join precision = %v, want ~0.25", pf)
	}
}

func TestJoinPrecisionEmpty(t *testing.T) {
	l := tblNamed(t, "l", 1)
	r := tblNamed(t, "r", 2)
	_, _, pf, err := JoinPrecision(context.Background(), nil, l, "k", r, "k", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pf != 1 {
		t.Fatalf("empty join precision = %v", pf)
	}
}

func BenchmarkHashJoin(b *testing.B) {
	src := xrand.New(1)
	mk := func(n int) *table.Table {
		tb := table.New("t", "k")
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = src.Int63n(int64(n))
		}
		if _, err := tb.AppendSingleColumn(vals); err != nil {
			b.Fatal(err)
		}
		return tb
	}
	l, r := mk(100000), mk(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HashJoin(context.Background(), nil, l, "k", r, "k", nil, ScanActive, 0); err != nil {
			b.Fatal(err)
		}
	}
}
