package amnesiadb_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"amnesiadb"
)

// joinDB builds two joinable tables with forgotten tuples on both sides.
func joinDB(t *testing.T) (*amnesiadb.DB, *amnesiadb.Table, *amnesiadb.Table) {
	t.Helper()
	db := amnesiadb.Open(amnesiadb.Options{Seed: 3})
	a, err := db.CreateTable("a", "k", "v")
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.CreateTable("b", "k", "w")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Insert(map[string][]int64{
		"k": {1, 2, 2, 3, 4, 5, 7},
		"v": {10, 20, 21, 30, 40, 50, 70},
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(map[string][]int64{
		"k": {2, 3, 3, 5, 7, 9},
		"w": {200, 300, 301, 500, 700, 900},
	}); err != nil {
		t.Fatal(err)
	}
	// FIFO budget 5 forgets the two oldest rows of a: keys 1 and 2.
	if err := a.SetPolicy(amnesiadb.Policy{Strategy: "fifo", Budget: 5}); err != nil {
		t.Fatal(err)
	}
	if err := a.EnforceBudget(); err != nil {
		t.Fatal(err)
	}
	return db, a, b
}

// joinRowsToValues projects DB.Join output through the two tables'
// columns — the ground truth SQL joins must reproduce byte-identically.
func joinRowsToValues(t *testing.T, left, right *amnesiadb.Table, lcol, rcol string, rows []amnesiadb.JoinRow) [][]float64 {
	t.Helper()
	lv, err := left.SelectWithForgotten(lcol, amnesiadb.All())
	if err != nil {
		t.Fatal(err)
	}
	rv, err := right.SelectWithForgotten(rcol, amnesiadb.All())
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = []float64{float64(lv.Values[r.LeftRow]), float64(rv.Values[r.RightRow])}
	}
	return out
}

// TestSQLJoinMatchesDBJoin pins the acceptance criterion: SQL JOIN
// results are byte-identical to DB.Join — both table orders, with and
// without predicates.
func TestSQLJoinMatchesDBJoin(t *testing.T) {
	db, a, b := joinDB(t)
	cases := []struct {
		sql         string
		left, right *amnesiadb.Table
		lproj, rpoj string
		pred        amnesiadb.Pred
	}{
		{"SELECT a.v, b.w FROM a JOIN b ON a.k = b.k", a, b, "v", "w", amnesiadb.All()},
		{"SELECT b.w, a.v FROM b JOIN a ON b.k = a.k", b, a, "w", "v", amnesiadb.All()},
		{"SELECT a.v, b.w FROM a JOIN b ON a.k = b.k WHERE a.k >= 3", a, b, "v", "w", amnesiadb.Ge(3)},
		{"SELECT a.v, b.w FROM a JOIN b ON a.k = b.k WHERE a.k >= 3 AND a.k < 6", a, b, "v", "w", amnesiadb.Range(3, 6)},
	}
	for _, tc := range cases {
		jr, err := db.Join(context.Background(), tc.left, "k", tc.right, "k", tc.pred)
		if err != nil {
			t.Fatalf("%s: join: %v", tc.sql, err)
		}
		want := joinRowsToValues(t, tc.left, tc.right, tc.lproj, tc.rpoj, jr)
		res, err := db.Query(tc.sql)
		if err != nil {
			t.Fatalf("%s: query: %v", tc.sql, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s: empty join result", tc.sql)
		}
		if !reflect.DeepEqual(res.Rows, want) {
			t.Fatalf("%s:\n got %v\nwant %v", tc.sql, res.Rows, want)
		}
	}
}

// TestSQLJoinOrderLimitMatchesDBJoin pins LIMIT and ORDER BY applied to
// joined output: LIMIT alone is a prefix of DB.Join's probe order, and
// ORDER BY ... LIMIT is the top-k of the stably sorted pairs.
func TestSQLJoinOrderLimitMatchesDBJoin(t *testing.T) {
	db, a, b := joinDB(t)
	jr, err := db.Join(context.Background(), a, "k", b, "k", amnesiadb.All())
	if err != nil {
		t.Fatal(err)
	}
	want := joinRowsToValues(t, a, b, "v", "w", jr)

	res, err := db.Query("SELECT a.v, b.w FROM a JOIN b ON a.k = b.k LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, want[:2]) {
		t.Fatalf("limit prefix diverges: %v vs %v", res.Rows, want[:2])
	}

	full, err := db.Query("SELECT a.v, b.w FROM a JOIN b ON a.k = b.k ORDER BY b.w DESC")
	if err != nil {
		t.Fatal(err)
	}
	topk, err := db.Query("SELECT a.v, b.w FROM a JOIN b ON a.k = b.k ORDER BY b.w DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(topk.Rows, full.Rows[:3]) {
		t.Fatalf("top-k diverges from full sort: %v vs %v", topk.Rows, full.Rows[:3])
	}
	for i := 1; i < len(full.Rows); i++ {
		if full.Rows[i-1][1] < full.Rows[i][1] {
			t.Fatalf("not descending at %d: %v", i, full.Rows)
		}
	}
}

// TestSQLPartitionedMatchesSelect pins the other acceptance criterion:
// a SQL SELECT against a partitioned table returns exactly
// PartitionedTable.Select's values, in the same order.
func TestSQLPartitionedMatchesSelect(t *testing.T) {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 8})
	pt, err := db.CreatePartitionedTable("readings", "v", 10000, 8, "uniform", 2000)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, 3000)
	for i := range vals {
		vals[i] = int64((i * 37) % 10000)
	}
	if err := pt.Insert(vals); err != nil {
		t.Fatal(err)
	}
	for _, rng := range [][2]int64{{0, 10000}, {500, 2500}, {9000, 9500}} {
		want, err := pt.Select(rng[0], rng[1])
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Query(fmt.Sprintf(
			"SELECT v FROM readings WHERE v >= %d AND v < %d", rng[0], rng[1]))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(want) {
			t.Fatalf("[%d,%d): %d rows, want %d", rng[0], rng[1], len(res.Rows), len(want))
		}
		for i, w := range want {
			if res.Rows[i][0] != float64(w) {
				t.Fatalf("[%d,%d): row %d = %v, want %d", rng[0], rng[1], i, res.Rows[i][0], w)
			}
		}
	}
	// COUNT routes through the shard fan-out too.
	res, err := db.Query("SELECT COUNT(*) FROM readings")
	if err != nil {
		t.Fatal(err)
	}
	if int(res.Rows[0][0]) != pt.Stats().Active {
		t.Fatalf("COUNT = %v, want %d", res.Rows[0][0], pt.Stats().Active)
	}
}

// TestCancelledCtxStopsFlatReads pins the ctx on the facade's flat
// reads: a done ctx makes Precision, Join and JoinPrecision return its
// cause instead of scanning to completion (flat Precision used to run
// on a Background ctx).
func TestCancelledCtxStopsFlatReads(t *testing.T) {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 1})
	tb, err := db.CreateTable("c", "k")
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, 10_000)
	for i := range vals {
		vals[i] = int64(i)
	}
	if err := tb.InsertColumn("k", vals); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := tb.Precision(ctx, "k", amnesiadb.All()); !errors.Is(err, context.Canceled) {
		t.Errorf("Precision under a cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := db.Join(ctx, tb, "k", tb, "k", amnesiadb.All()); !errors.Is(err, context.Canceled) {
		t.Errorf("Join under a cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, _, _, err := db.JoinPrecision(ctx, tb, "k", tb, "k", amnesiadb.All()); !errors.Is(err, context.Canceled) {
		t.Errorf("JoinPrecision under a cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestQueryStreamReleasesLocks pins the stream's locking contract: a
// drained (or closed) stream releases its read locks so writers can
// proceed, and an abandoned stream holds them until Close.
func TestQueryStreamReleasesLocks(t *testing.T) {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 1})
	tab, err := db.CreateTable("t", "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.InsertColumn("a", []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	qs, err := db.QueryStream("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	for {
		rows, err := qs.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rows == nil {
			break
		}
	}
	// The drained stream auto-closed; an insert must not deadlock.
	done := make(chan error, 1)
	go func() { done <- tab.InsertColumn("a", []int64{4}) }()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Early Close on an unconsumed stream releases too (idempotent).
	qs2, err := db.QueryStream("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	qs2.Close()
	qs2.Close()
	if err := tab.InsertColumn("a", []int64{5}); err != nil {
		t.Fatal(err)
	}
}
