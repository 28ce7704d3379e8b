package sql

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"amnesiadb/internal/engine"
	"amnesiadb/internal/expr"
	"amnesiadb/internal/partition"
	"amnesiadb/internal/xrand"
)

// partFixture builds a partitioned set over [0, 1000) with a catalog
// entry named "p".
func partFixture(t *testing.T, shards int) (*partition.Set, Catalog) {
	t.Helper()
	set, err := partition.New("v", 1000, shards, "uniform", 1000, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, 600)
	src := xrand.New(9)
	for i := range vals {
		vals[i] = src.Int63n(1000)
	}
	if err := set.Insert(vals); err != nil {
		t.Fatal(err)
	}
	cat := CatalogFunc(func(name string) (Relation, error) {
		if name != "p" {
			return nil, errors.New("unknown")
		}
		return NewPartitionRelation(set), nil
	})
	return set, cat
}

// TestPartitionedSelectMatchesSet pins SQL over a partitioned relation
// against the set's direct Select: identical values in identical order.
func TestPartitionedSelectMatchesSet(t *testing.T) {
	set, cat := partFixture(t, 4)
	want, err := set.Select(100, 700)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cat, "SELECT v FROM p WHERE v >= 100 AND v < 700")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(want))
	}
	for i, w := range want {
		if res.Rows[i][0] != float64(w) {
			t.Fatalf("row %d = %v, want %d", i, res.Rows[i][0], w)
		}
	}
	// SELECT * projects the single column too.
	star, err := Run(cat, "SELECT * FROM p WHERE v >= 100 AND v < 700")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, star.Rows) {
		t.Fatal("star projection diverges")
	}
}

// TestPartitionedAggregatesAndOrder pins aggregates, ORDER BY and LIMIT
// over the partitioned relation against first principles.
func TestPartitionedAggregatesAndOrder(t *testing.T) {
	set, cat := partFixture(t, 8)
	all, err := set.Select(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, v := range all {
		sum += v
	}
	cases := map[string]float64{
		"SELECT COUNT(*) FROM p": float64(len(all)),
		"SELECT SUM(v) FROM p":   float64(sum),
		"SELECT AVG(v) FROM p":   float64(sum) / float64(len(all)),
	}
	for src, want := range cases {
		res, err := Run(cat, src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if math.Abs(res.Rows[0][0]-want) > 1e-9 {
			t.Fatalf("%s = %v, want %v", src, res.Rows[0][0], want)
		}
	}
	res, err := Run(cat, "SELECT v FROM p ORDER BY v DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Rows[0][0] < res.Rows[1][0] || res.Rows[1][0] < res.Rows[2][0] {
		t.Fatalf("ordered rows = %v", res.Rows)
	}
	// Empty qualifying set: NULL-style aggregate, zero COUNT.
	null, err := Run(cat, "SELECT MAX(v) FROM p WHERE v > 5000")
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(null.Rows[0][0]) {
		t.Fatalf("empty MAX = %v, want NaN", null.Rows[0][0])
	}
	// Unknown column is bad SQL, not an internal error.
	if _, err := Run(cat, "SELECT zz FROM p"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("unknown column error = %v", err)
	}
}

// TestStreamChunking pins the ResultStream contract: a large result
// arrives in multiple chunks whose concatenation equals Collect, and a
// LIMIT cuts across chunk boundaries.
func TestStreamChunking(t *testing.T) {
	n := 3*StreamChunkRows + 123
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	cat := catalog(t, vals...)
	st, err := RunStream(cat, "SELECT a FROM t", Opts{})
	if err != nil {
		t.Fatal(err)
	}
	chunks, total := 0, 0
	for {
		rows, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rows == nil {
			break
		}
		if len(rows) > StreamChunkRows {
			t.Fatalf("chunk of %d rows exceeds StreamChunkRows", len(rows))
		}
		chunks++
		total += len(rows)
	}
	if chunks < 4 || total != n {
		t.Fatalf("chunks = %d, rows = %d, want >= 4 chunks of %d total", chunks, total, n)
	}
	// LIMIT falling mid-chunk.
	lim := StreamChunkRows + 7
	res, err := RunOpts(cat, fmt.Sprintf("SELECT a FROM t LIMIT %d", lim), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != lim {
		t.Fatalf("limit rows = %d, want %d", len(res.Rows), lim)
	}
	for i := range res.Rows {
		if res.Rows[i][0] != float64(i) {
			t.Fatalf("row %d = %v", i, res.Rows[i])
		}
	}
}

// TestPartitionedStreamMatchesShardScans pins the scan over shards:
// concatenating ScanChunkStream's chunks must reproduce the
// shards' own scans taken one by one in range order — shard order,
// value order, every shard.
func TestPartitionedStreamMatchesShardScans(t *testing.T) {
	set, _ := partFixture(t, 8)
	pred := expr.NewRange(50, 900)
	var want []int64
	for _, p := range set.Partitions() {
		res, err := engine.NewSilent(p.Table()).Select(set.Column(), pred, engine.ScanActive)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res.Values...)
	}
	st, err := set.ScanChunkStream(context.Background(), pred, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for {
		c, ok, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, c.Values...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed fan-out = %d values, want %d (order or content diverged)", len(got), len(want))
	}
	if len(want) == 0 {
		t.Fatal("degenerate case: empty fan-out")
	}
}

// TestClusteredOrderByMatchesGlobalSort pins ORDER BY over shards: the
// sort barrier must equal the global stable sort of the whole scan,
// across directions, limits and parallelism.
func TestClusteredOrderByMatchesGlobalSort(t *testing.T) {
	set, cat := partFixture(t, 8)
	// The reference order is computed directly: sort the unordered scan.
	base, err := set.Select(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	asc := append([]int64(nil), base...)
	slices.Sort(asc)
	desc := make([]int64, len(asc))
	for i, v := range asc {
		desc[len(asc)-1-i] = v
	}
	cases := []struct {
		q    string
		want []int64
	}{
		{"SELECT v FROM p ORDER BY v", asc},
		{"SELECT v FROM p ORDER BY v DESC", desc},
		{"SELECT v FROM p ORDER BY v LIMIT 7", asc[:7]},
		{"SELECT v FROM p ORDER BY v DESC LIMIT 7", desc[:7]},
		{"SELECT v, v FROM p ORDER BY v LIMIT 3", asc[:3]},
		{"SELECT v FROM p WHERE v >= 1000 ORDER BY v", nil},
		{"SELECT v FROM p ORDER BY v LIMIT 0", nil},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 4} {
			res, err := RunOpts(cat, tc.q, Opts{Parallelism: par})
			if err != nil {
				t.Fatalf("%s: %v", tc.q, err)
			}
			if len(res.Rows) != len(tc.want) {
				t.Fatalf("%s par=%d: %d rows, want %d", tc.q, par, len(res.Rows), len(tc.want))
			}
			for i, row := range res.Rows {
				for _, cell := range row {
					if cell != float64(tc.want[i]) {
						t.Fatalf("%s par=%d: row %d = %v, want %d", tc.q, par, i, row, tc.want[i])
					}
				}
			}
		}
	}
}

// TestPartitionedLimitTouchesReturnedRows pins the unordered LIMIT over
// a partitioned relation: it goes down into the scan, which stops
// across shards at the limit, so the shards' access counts sum to
// exactly the rows returned — the first ten of the value-ordered scan —
// like a flat table's.
func TestPartitionedLimitTouchesReturnedRows(t *testing.T) {
	set, cat := partFixture(t, 8)
	var want []int64
	for _, p := range set.Partitions() {
		res, err := engine.NewSilent(p.Table()).Select(set.Column(), expr.True{}, engine.ScanActive)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res.Values...)
	}
	for rep, par := range []int{1, 4} {
		res, err := RunOpts(cat, "SELECT v FROM p LIMIT 10", Opts{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 10 {
			t.Fatalf("par=%d: %d rows, want 10", par, len(res.Rows))
		}
		for i, row := range res.Rows {
			if row[0] != float64(want[i]) {
				t.Fatalf("par=%d: row %d = %v, want %d", par, i, row[0], want[i])
			}
		}
		touched := 0
		for _, p := range set.Partitions() {
			for i := 0; i < p.Table().Len(); i++ {
				touched += int(p.Table().AccessCount(i))
			}
		}
		if want := 10 * (rep + 1); touched != want {
			t.Fatalf("par=%d: shards' access counts sum to %d after %d queries, want %d", par, touched, rep+1, want)
		}
	}
}
