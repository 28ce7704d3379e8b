package amnesiadb

import (
	"fmt"
	"testing"

	"amnesiadb/internal/sql"
	"amnesiadb/internal/table"
)

// TestUnorderedLimitTouchesReturnedRows pins the §3.2 feedback of an
// unordered LIMIT: the query touches exactly the rows it returned — not
// the chunks its producers happened to finish before the LIMIT closed
// them — and the touches are in place by the time the call returns.
// Every row qualifies, so a scan that touched what it produced would
// show whole chunks and morsels here.
func TestUnorderedLimitTouchesReturnedRows(t *testing.T) {
	const rows, limit, reps = 256 << 10, 10, 8
	const stmt = "SELECT a FROM t WHERE a >= 0 LIMIT 10"
	type run struct {
		name  string
		query func() (*QueryResult, error)
		count func(i int) uint32
	}
	var runs []run
	for _, par := range []int{1, 2} {
		bare := table.New("t", "a")
		if _, err := bare.AppendSingleColumn(seq(rows)); err != nil {
			t.Fatal(err)
		}
		cat := sql.CatalogFunc(func(string) (sql.Relation, error) { return sql.NewTableRelation(bare), nil })
		runs = append(runs, run{fmt.Sprintf("sql.RunOpts/par=%d", par), func() (*QueryResult, error) {
			res, err := sql.RunOpts(cat, stmt, sql.Opts{Parallelism: par})
			if err != nil {
				return nil, err
			}
			return &QueryResult{Columns: res.Columns, Rows: res.Rows, Ints: res.Ints}, nil
		}, bare.AccessCount})

		db := Open(Options{Seed: 1, Parallelism: par})
		tb, err := db.CreateTable("t", "a")
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.InsertColumn("a", seq(rows)); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{fmt.Sprintf("db.Query/par=%d", par), func() (*QueryResult, error) { return db.Query(stmt) }, tb.tbl.AccessCount})
	}
	for _, r := range runs {
		for rep := 1; rep <= reps; rep++ {
			res, err := r.query()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != limit {
				t.Fatalf("%s: %d rows, want %d", r.name, len(res.Rows), limit)
			}
			// Rows arrive in insertion order and a = position, so the
			// answer is rows 0..9: each touched once per repetition.
			total := 0
			for i := 0; i < rows; i++ {
				n := int(r.count(i))
				total += n
				if i < limit && n != rep {
					t.Fatalf("%s repetition %d: returned row %d touched %d times, want %d", r.name, rep, i, n, rep)
				}
			}
			if total != rep*limit {
				t.Fatalf("%s repetition %d: %d touches in all, want %d", r.name, rep, total, rep*limit)
			}
		}
	}
}
