package amnesiadb_test

import (
	"context"
	"fmt"

	"amnesiadb"
)

// ExampleDB shows the minimal lifecycle: create, set a policy, insert
// past the budget, observe the forgetting.
func ExampleDB() {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 42})
	t, _ := db.CreateTable("readings", "value")
	_ = t.SetPolicy(amnesiadb.Policy{Strategy: "fifo", Budget: 3})

	_ = t.InsertColumn("value", []int64{10, 20, 30, 40, 50})

	res, _ := t.Select("value", amnesiadb.All())
	fmt.Println("active values:", res.Values)
	s := t.Stats()
	fmt.Printf("stored %d, active %d, forgotten %d\n", s.Tuples, s.Active, s.Forgotten)
	// Output:
	// active values: [30 40 50]
	// stored 5, active 3, forgotten 2
}

// ExampleDB_Query shows the SQL dialect over an amnesiac table.
func ExampleDB_Query() {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 1})
	t, _ := db.CreateTable("t", "a")
	_ = t.InsertColumn("a", []int64{1, 2, 3, 4, 5})

	res, _ := db.Query("SELECT AVG(a) FROM t WHERE a >= 2 AND a < 5")
	fmt.Printf("%s = %v\n", res.Columns[0], res.Rows[0][0])
	// Output:
	// AVG(a) = 3
}

// ExampleDB_Query_join shows the SQL JOIN surface: an equi-join with
// qualified projection riding the parallel hash join — identical rows
// to DB.Join, served through the unified relation catalog.
func ExampleDB_Query_join() {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 1})
	users, _ := db.CreateTable("users", "id", "age")
	orders, _ := db.CreateTable("orders", "uid", "total")
	_ = users.Insert(map[string][]int64{"id": {1, 2, 3}, "age": {30, 40, 50}})
	_ = orders.Insert(map[string][]int64{"uid": {2, 3, 3}, "total": {25, 60, 15}})

	res, _ := db.Query("SELECT users.age, orders.total FROM users JOIN orders ON users.id = orders.uid ORDER BY orders.total DESC")
	for _, row := range res.Rows {
		fmt.Println(row[0], row[1])
	}
	// Output:
	// 50 60
	// 40 25
	// 50 15
}

// ExampleDB_Query_partitioned shows that partitioned tables are
// first-class catalog entries: SQL reads the intersecting shards as
// one scan, so the §4.4 adaptive-partitioning store serves the same
// /query surface.
func ExampleDB_Query_partitioned() {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 1})
	pt, _ := db.CreatePartitionedTable("sensors", "v", 100, 4, "fifo", 100)
	_ = pt.Insert([]int64{5, 30, 55, 80, 31})

	res, _ := db.Query("SELECT v FROM sensors WHERE v >= 25 AND v < 75")
	for _, row := range res.Rows {
		fmt.Println(row[0])
	}
	// Output:
	// 30
	// 31
	// 55
}

// ExampleDB_QueryStream shows the chunked result form the HTTP server
// serializes incrementally; Collecting by hand is just draining Next.
func ExampleDB_QueryStream() {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 1})
	t, _ := db.CreateTable("t", "a")
	_ = t.InsertColumn("a", []int64{1, 2, 3})

	qs, _ := db.QueryStream("SELECT a FROM t")
	defer qs.Close()
	for {
		rows, err := qs.Next()
		if err != nil || rows == nil {
			break
		}
		fmt.Println("chunk of", len(rows), "rows")
	}
	// Output:
	// chunk of 3 rows
}

// ExampleTable_Precision shows the paper's PF(Q) metric: how much of the
// true answer amnesia cost a query.
func ExampleTable_Precision() {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 1})
	t, _ := db.CreateTable("t", "a")
	_ = t.SetPolicy(amnesiadb.Policy{Strategy: "fifo", Budget: 2})
	_ = t.InsertColumn("a", []int64{1, 2, 3, 4})

	rf, mf, pf, _ := t.Precision(context.Background(), "a", amnesiadb.All())
	fmt.Printf("returned %d, missed %d, precision %.2f\n", rf, mf, pf)
	// Output:
	// returned 2, missed 2, precision 0.50
}

// ExampleTable_Summarize shows the summary fate: forgotten mass collapses
// to segments, the all-time average survives a physical vacuum.
func ExampleTable_Summarize() {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 1})
	t, _ := db.CreateTable("t", "a")
	_ = t.SetPolicy(amnesiadb.Policy{Strategy: "fifo", Budget: 2})
	_ = t.InsertColumn("a", []int64{10, 20, 30, 40})

	absorbed, _ := t.Summarize("a")
	t.Vacuum()
	avg, _ := t.ApproxAvg("a")
	fmt.Printf("absorbed %d, stored now %d, all-time avg %.0f\n",
		absorbed, t.Stats().Tuples, avg)
	// Output:
	// absorbed 2, stored now 2, all-time avg 25
}
