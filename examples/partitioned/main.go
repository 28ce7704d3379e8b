// Partitioned: §4.4's adaptive partitioning driven end to end — a
// value-partitioned table served through the SQL catalog, with the
// pipelined shard fan-out and the shard-merge ORDER BY doing the work,
// and Adapt() steering per-shard budgets toward the queried range.
//
//	go run ./examples/partitioned
package main

import (
	"fmt"
	"log"

	"amnesiadb"
	"amnesiadb/internal/xrand"
)

func main() {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 4})
	pt, err := db.CreatePartitionedTable("sensors", "reading", 10_000, 8, "uniform", 40_000)
	if err != nil {
		log.Fatal(err)
	}
	src := xrand.New(11)
	vals := make([]int64, 100_000)
	for i := range vals {
		vals[i] = src.Int63n(10_000)
	}
	if err := pt.Insert(vals); err != nil {
		log.Fatal(err)
	}

	// The pipelined shard fan-out: results stream shard by shard.
	qs, err := db.QueryStream("SELECT reading FROM sensors WHERE reading >= 2000 AND reading < 4000")
	if err != nil {
		log.Fatal(err)
	}
	n := 0
	for {
		rows, err := qs.Next()
		if err != nil {
			log.Fatal(err)
		}
		if rows == nil {
			break
		}
		n += len(rows)
	}
	fmt.Printf("range scan streamed %d readings\n", n)

	// ORDER BY over the shards: an ascending sort streams shard by shard;
	// this descending top-3 is one sort over the fan-out.
	res, err := db.Query("SELECT reading FROM sensors ORDER BY reading DESC LIMIT 3")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top readings: %v %v %v\n", res.Rows[0][0], res.Rows[1][0], res.Rows[2][0])

	// Focus the workload, adapt, and watch budgets follow it.
	for i := 0; i < 50; i++ {
		if _, err := pt.Select(2000, 3000); err != nil {
			log.Fatal(err)
		}
	}
	pt.Adapt()
	for _, p := range pt.Partitions() {
		fmt.Printf("shard [%4d,%5d) budget %5d active %5d\n", p.Lo, p.Hi, p.Budget, p.Active)
	}
}
