package sql

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"amnesiadb/internal/engine"
	"amnesiadb/internal/expr"
	"amnesiadb/internal/table"
	"amnesiadb/internal/xrand"
)

// joinFixture builds two joinable tables with overlapping keys and a
// few forgotten tuples, so join results depend on the active view.
func joinFixture(t *testing.T) (*table.Table, *table.Table, Catalog) {
	t.Helper()
	a := table.New("a", "k", "v")
	if _, err := a.AppendBatch(map[string][]int64{
		"k": {1, 2, 2, 3, 4, 7},
		"v": {10, 20, 21, 30, 40, 70},
	}); err != nil {
		t.Fatal(err)
	}
	b := table.New("b", "k", "w")
	if _, err := b.AppendBatch(map[string][]int64{
		"k": {2, 3, 3, 5, 7, 7},
		"w": {200, 300, 301, 500, 700, 701},
	}); err != nil {
		t.Fatal(err)
	}
	a.Forget(5) // a.k = 7 forgotten: 7-matches must vanish
	b.Forget(3)
	return a, b, tableCatalog(a, b)
}

func TestParseJoin(t *testing.T) {
	q, err := Parse("SELECT a.v, b.w FROM a JOIN b ON a.k = b.k WHERE a.k > 1 ORDER BY b.w DESC LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if q.Join == nil || q.Join.Table != "b" || q.Join.LeftCol != "k" || q.Join.RightCol != "k" {
		t.Fatalf("join = %+v", q.Join)
	}
	if len(q.Columns) != 2 || q.Columns[0] != (ColRef{Table: "a", Name: "v"}) || q.Columns[1] != (ColRef{Table: "b", Name: "w"}) {
		t.Fatalf("columns = %v", q.Columns)
	}
	if q.WhereCol != (ColRef{Table: "a", Name: "k"}) || q.OrderBy != (ColRef{Table: "b", Name: "w"}) || !q.OrderDesc || q.Limit != 5 {
		t.Fatalf("query = %+v", q)
	}
	if got := q.Tables(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("tables = %v", got)
	}
	// Reversed ON order maps to the same sides.
	q2, err := Parse("SELECT a.v FROM a JOIN b ON b.k = a.k")
	if err != nil {
		t.Fatal(err)
	}
	if q2.Join.LeftCol != "k" || q2.Join.RightCol != "k" || q2.Join.Table != "b" {
		t.Fatalf("reversed join = %+v", q2.Join)
	}
}

func TestParseJoinErrors(t *testing.T) {
	for _, bad := range []string{
		"SELECT a.v FROM a JOIN",
		"SELECT a.v FROM a JOIN b",
		"SELECT a.v FROM a JOIN b ON",
		"SELECT a.v FROM a JOIN b ON a.k = c.k",                           // qualifier not a join table
		"SELECT a.v FROM a JOIN b ON k = b.k",                             // unqualified ON
		"SELECT a.v FROM a JOIN b ON a.k < b.k",                           // not an equi-join
		"SELECT a.v FROM a JOIN b ON a.k = b.k WHERE a.k > 1 AND b.k < 9", // two WHERE attributes
		"SELECT x.y.z FROM t",
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) succeeded", bad)
		}
	}
}

// TestJoinMatchesEngineJoin pins the SQL join against the engine's
// direct HashJoin: same pairs, same probe order, projected values
// byte-identical — in both FROM orders and with a key predicate.
func TestJoinMatchesEngineJoin(t *testing.T) {
	a, b, cat := joinFixture(t)
	cases := []struct {
		sql         string
		left, right *table.Table
		lcol, rcol  string
		lproj, rpoj string
		pred        expr.Expr
	}{
		{"SELECT a.v, b.w FROM a JOIN b ON a.k = b.k", a, b, "k", "k", "v", "w", nil},
		{"SELECT b.w, a.v FROM b JOIN a ON b.k = a.k", b, a, "k", "k", "w", "v", nil},
		{"SELECT a.v, b.w FROM a JOIN b ON a.k = b.k WHERE a.k > 2", a, b, "k", "k", "v", "w", expr.Cmp{Op: expr.GT, Val: 2}},
	}
	for _, tc := range cases {
		res, err := Run(cat, tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		pred := tc.pred
		if pred == nil {
			pred = expr.True{}
		}
		jr, err := engine.HashJoin(context.Background(), nil, tc.left, tc.lcol, tc.right, tc.rcol, pred, engine.ScanActive, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(jr.Rows) {
			t.Fatalf("%s: %d rows, engine %d", tc.sql, len(res.Rows), len(jr.Rows))
		}
		lc, rc := tc.left.MustColumn(tc.lproj), tc.right.MustColumn(tc.rpoj)
		for i, r := range jr.Rows {
			wantL := float64(lc.Gather([]int32{r.Left}, nil)[0])
			wantR := float64(rc.Gather([]int32{r.Right}, nil)[0])
			if res.Rows[i][0] != wantL || res.Rows[i][1] != wantR {
				t.Fatalf("%s: row %d = %v, want (%v, %v)", tc.sql, i, res.Rows[i], wantL, wantR)
			}
		}
	}
}

// TestJoinOrderByLimit pins ORDER BY and LIMIT over joined output,
// including the unqualified-but-unambiguous column form.
func TestJoinOrderByLimit(t *testing.T) {
	_, _, cat := joinFixture(t)
	res, err := Run(cat, "SELECT a.v, w FROM a JOIN b ON a.k = b.k ORDER BY w DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][1] < res.Rows[1][1] {
		t.Fatalf("not descending: %v", res.Rows)
	}
	full, err := Run(cat, "SELECT a.v, w FROM a JOIN b ON a.k = b.k ORDER BY w DESC")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, full.Rows[:2]) {
		t.Fatalf("top-k diverges from full sort: %v vs %v", res.Rows, full.Rows[:2])
	}
	// LIMIT 0 still returns the header with no rows.
	zero, err := Run(cat, "SELECT a.v FROM a JOIN b ON a.k = b.k LIMIT 0")
	if err != nil {
		t.Fatal(err)
	}
	if len(zero.Rows) != 0 || len(zero.Columns) != 1 {
		t.Fatalf("limit 0 = %+v", zero)
	}
}

// TestJoinParallelEquivalence checks the SQL join is byte-identical at
// every parallelism, riding HashJoin's determinism.
func TestJoinParallelEquivalence(t *testing.T) {
	const n = 40000
	src := xrand.New(7)
	a := table.New("a", "k")
	b := table.New("b", "k")
	av := make([]int64, n)
	bv := make([]int64, n/4)
	for i := range av {
		av[i] = src.Int63n(1 << 12)
	}
	for i := range bv {
		bv[i] = src.Int63n(1 << 12)
	}
	if _, err := a.AppendSingleColumn(av); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AppendSingleColumn(bv); err != nil {
		t.Fatal(err)
	}
	cat := tableCatalog(a, b)
	const q = "SELECT a.k, b.k FROM a JOIN b ON a.k = b.k WHERE a.k < 512 LIMIT 10000"
	serial, err := RunOpts(cat, q, Opts{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4} {
		got, err := RunOpts(cat, q, Opts{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial.Rows, got.Rows) {
			t.Fatalf("par=%d join rows diverge from serial", par)
		}
	}
}

// TestJoinValidation pins the executor-level join checks: ambiguous and
// unknown projections, WHERE off the join key, aggregates and star.
func TestJoinValidation(t *testing.T) {
	_, _, cat := joinFixture(t)
	for _, bad := range []string{
		"SELECT k FROM a JOIN b ON a.k = b.k",                 // ambiguous
		"SELECT a.zz FROM a JOIN b ON a.k = b.k",              // unknown column
		"SELECT c.v FROM a JOIN b ON a.k = b.k",               // unknown qualifier
		"SELECT a.v FROM a JOIN b ON a.v = b.w WHERE a.k > 1", // WHERE not the key
		"SELECT a.v FROM a JOIN b ON a.k = b.k WHERE v > 1",   // WHERE not the key (unqualified)
		"SELECT COUNT(*) FROM a JOIN b ON a.k = b.k",          // aggregate over join
		"SELECT * FROM a JOIN b ON a.k = b.k",                 // star over join
		"SELECT a.v FROM a JOIN b ON a.k = b.k ORDER BY c.w",  // unknown order qualifier
		"SELECT a.v FROM a JOIN b ON a.zz = b.k",              // unknown join key
	} {
		_, err := Run(cat, bad)
		if !errors.Is(err, ErrInvalid) {
			t.Fatalf("Run(%q) error %v, want ErrInvalid", bad, err)
		}
	}
}
