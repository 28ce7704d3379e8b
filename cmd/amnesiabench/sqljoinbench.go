package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"amnesiadb"
	"amnesiadb/internal/engine"
	"amnesiadb/internal/sql"
	"amnesiadb/internal/xrand"
)

// runSQLJoinBench measures the SQL JOIN path against the direct DB.Join
// call over the same data — an n-row probe side joined with an n/8 build
// side sharing one key domain — and reports the front-end's overhead:
// one JSON line each for the direct join, the SQL join, the parse step
// alone, and the derived sql-minus-direct delta. The SQL path pays for
// parse, plan/validation and float64 projection on top of the identical
// HashJoin call, so the delta is the end-to-end cost of the SQL
// surface, with parse_ns isolating the front half.
func runSQLJoinBench(n, workers int) error {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 1, Parallelism: workers})
	src := xrand.New(1)
	mk := func(name string, rows int) (*amnesiadb.Table, error) {
		t, err := db.CreateTable(name, "k")
		if err != nil {
			return nil, err
		}
		vals := make([]int64, rows)
		for i := range vals {
			vals[i] = src.Int63n(1 << 20)
		}
		if err := t.InsertColumn("k", vals); err != nil {
			return nil, err
		}
		return t, nil
	}
	probe, err := mk("probe", n)
	if err != nil {
		return err
	}
	build, err := mk("build", n/8)
	if err != nil {
		return err
	}
	total := n + n/8
	const query = "SELECT probe.k, build.k FROM probe JOIN build ON probe.k = build.k"
	w := engine.Workers(nil, workers, total, engine.TaskMinRows)
	enc := json.NewEncoder(os.Stdout)
	emit := func(bench string, ns, allocs float64) error {
		return enc.Encode(scanResult{
			Bench:       bench,
			Rows:        total,
			Workers:     w,
			NsPerOp:     ns,
			RowsPerSec:  float64(total) / (ns / 1e9),
			AllocsPerOp: allocs,
		})
	}

	directNs, directAllocs, err := measure(func() error {
		rows, err := db.Join(context.Background(), probe, "k", build, "k", amnesiadb.All())
		if err != nil {
			return err
		}
		if len(rows) == 0 {
			return fmt.Errorf("sqljoin: empty direct join")
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := emit("direct_join", directNs, directAllocs); err != nil {
		return err
	}

	sqlNs, sqlAllocs, err := measure(func() error {
		res, err := db.Query(query)
		if err != nil {
			return err
		}
		if len(res.Rows) == 0 {
			return fmt.Errorf("sqljoin: empty SQL join")
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := emit("sql_join", sqlNs, sqlAllocs); err != nil {
		return err
	}

	parseNs, parseAllocs, err := measure(func() error {
		_, err := sql.Parse(query)
		return err
	})
	if err != nil {
		return err
	}
	if err := emit("sql_parse", parseNs, parseAllocs); err != nil {
		return err
	}

	// The overhead line is the headline number: what the SQL surface
	// costs per query on top of the identical engine join. A rows/sec
	// rate over a time delta is meaningless (and noise can make the
	// delta negative), so the line carries the deltas alone.
	return enc.Encode(scanResult{
		Bench:       "sql_join_overhead",
		Rows:        total,
		Workers:     w,
		NsPerOp:     sqlNs - directNs,
		AllocsPerOp: sqlAllocs - directAllocs,
	})
}
