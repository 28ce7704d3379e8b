package amnesiadb_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"amnesiadb"
	"amnesiadb/internal/xrand"
)

// servingDB builds one database in the given configuration with a
// deterministic catalog: a multi-morsel flat table, a join pair, and a
// partitioned table whose budget is wide enough that nothing forgets —
// so two instances built with different execution options hold
// identical data.
func servingDB(t *testing.T, opts amnesiadb.Options) *amnesiadb.DB {
	t.Helper()
	db := amnesiadb.Open(opts)
	big, err := db.CreateTable("big", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	const n = 300_000
	src := xrand.New(11)
	av := make([]int64, n)
	bv := make([]int64, n)
	for i := range av {
		av[i] = src.Int63n(1 << 18)
		bv[i] = int64(i)
	}
	if err := big.Insert(map[string][]int64{"a": av, "b": bv}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"jx", "jy"} {
		jt, err := db.CreateTable(name, "k", "v")
		if err != nil {
			t.Fatal(err)
		}
		kv := make([]int64, 20_000)
		vv := make([]int64, 20_000)
		for i := range kv {
			kv[i] = int64(i % 997)
			vv[i] = int64(i)
		}
		if err := jt.Insert(map[string][]int64{"k": kv, "v": vv}); err != nil {
			t.Fatal(err)
		}
	}
	pt, err := db.CreatePartitionedTable("pt", "p", 1<<16, 8, "fifo", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	pv := make([]int64, 50_000)
	psrc := xrand.New(13)
	for i := range pv {
		pv[i] = psrc.Int63n(1 << 16)
	}
	if err := pt.Insert(pv); err != nil {
		t.Fatal(err)
	}
	return db
}

// servingQueries is the mixed workload the stress test pins: flat
// scans, streamed ORDER BY, aggregates, a two-table join and
// partitioned-table queries — every execution shape the scheduler
// dispatches.
var servingQueries = []string{
	"SELECT a FROM big WHERE a < 2048",
	"SELECT a, b FROM big WHERE a < 1024 ORDER BY b DESC LIMIT 50",
	"SELECT AVG(a) FROM big WHERE a < 131072",
	"SELECT COUNT(*) FROM big",
	"SELECT SUM(a) FROM big WHERE a >= 65536",
	"SELECT jx.v, jy.v FROM jx JOIN jy ON jx.k = jy.k WHERE jx.k < 3",
	"SELECT p FROM pt WHERE p < 4096",
	"SELECT COUNT(*) FROM pt WHERE p >= 32768",
	"SELECT a FROM big WHERE a < 512 ORDER BY a LIMIT 20",
	"SELECT MIN(b) FROM big",
}

// TestConcurrentMixedQueriesByteIdentical is the tentpole stress pin:
// 64 goroutines hammer one pooled database (shared scheduler, result
// cache on) with a mixed workload while a one-worker, cache-less
// reference database defines the expected answer for every
// statement. Any scheduling, merging or caching bug that perturbs
// ordering or content fails DeepEqual; the -race CI job runs this
// fully instrumented.
func TestConcurrentMixedQueriesByteIdentical(t *testing.T) {
	ref := servingDB(t, amnesiadb.Options{Seed: 5, Parallelism: 1})
	pooled := servingDB(t, amnesiadb.Options{Seed: 5, CacheEntries: 32})
	defer pooled.Close()

	want := make(map[string]*amnesiadb.QueryResult, len(servingQueries))
	for _, q := range servingQueries {
		res, err := ref.Query(q)
		if err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
		want[q] = res
	}

	const workers = 64
	const itersPerWorker = 8
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < itersPerWorker; i++ {
				q := servingQueries[(w+i)%len(servingQueries)]
				got, err := pooled.Query(q)
				if err != nil {
					errc <- fmt.Errorf("%q: %v", q, err)
					return
				}
				exp := want[q]
				if !reflect.DeepEqual(got.Rows, exp.Rows) || !reflect.DeepEqual(got.Columns, exp.Columns) || !reflect.DeepEqual(got.Ints, exp.Ints) {
					errc <- fmt.Errorf("%q: pooled result differs from serial reference (got %d rows, want %d)", q, len(got.Rows), len(exp.Rows))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	ps := pooled.PoolStats()
	if ps.Workers < 1 {
		t.Fatalf("pooled DB reports no workers: %+v", ps)
	}
	cs := pooled.CacheStats()
	if cs.ResultHits == 0 {
		t.Fatalf("stress run never hit the result cache: %+v", cs)
	}
}

// TestResultCacheHitAndInvalidation pins the serving-path cache
// contract end to end: a repeated statement is served from the cache
// (Cached() reports it), a mutation on any referenced relation —
// an insert, a budget enforcement that forgets, a partitioned insert —
// invalidates exactly that statement's entry, and the post-mutation
// answer reflects the new data.
func TestResultCacheHitAndInvalidation(t *testing.T) {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 9, CacheEntries: 16})
	defer db.Close()
	tab, err := db.CreateTable("t", "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.InsertColumn("a", []int64{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}

	runStream := func(q string) (*amnesiadb.QueryStream, [][]float64) {
		t.Helper()
		qs, err := db.QueryStream(q)
		if err != nil {
			t.Fatal(err)
		}
		var rows [][]float64
		for {
			chunk, err := qs.Next()
			if err != nil {
				t.Fatal(err)
			}
			if chunk == nil {
				break
			}
			rows = append(rows, chunk...)
		}
		return qs, rows
	}

	const q = "SELECT COUNT(*) FROM t"
	qs1, rows1 := runStream(q)
	if qs1.Cached() {
		t.Fatal("first execution claimed a cache hit")
	}
	// Whitespace variants normalize to the same key.
	qs2, rows2 := runStream("SELECT   COUNT(*)   FROM t")
	if !qs2.Cached() {
		t.Fatal("repeat execution missed the cache")
	}
	if !reflect.DeepEqual(rows1, rows2) {
		t.Fatalf("cached rows differ: %v vs %v", rows1, rows2)
	}
	if rows1[0][0] != 5 {
		t.Fatalf("count = %v, want 5", rows1[0][0])
	}

	// Insert invalidates: the next run scans and sees the new tuple.
	if err := tab.InsertColumn("a", []int64{6}); err != nil {
		t.Fatal(err)
	}
	qs3, rows3 := runStream(q)
	if qs3.Cached() {
		t.Fatal("post-insert execution served a stale cache entry")
	}
	if rows3[0][0] != 6 {
		t.Fatalf("post-insert count = %v, want 6", rows3[0][0])
	}
	if qs4, _ := runStream(q); !qs4.Cached() {
		t.Fatal("recomputed entry not re-cached")
	}

	// Forgetting invalidates too: budget enforcement drops tuples, so
	// the cached count would be wrong.
	if err := tab.SetPolicy(amnesiadb.Policy{Strategy: "fifo", Budget: 3}); err != nil {
		t.Fatal(err)
	}
	if err := tab.EnforceBudget(); err != nil {
		t.Fatal(err)
	}
	qs5, rows5 := runStream(q)
	if qs5.Cached() {
		t.Fatal("post-forget execution served a stale cache entry")
	}
	if rows5[0][0] != 3 {
		t.Fatalf("post-forget count = %v, want 3", rows5[0][0])
	}

	// Partitioned relations carry epochs the same way.
	pt, err := db.CreatePartitionedTable("pp", "p", 1024, 4, "fifo", 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Insert([]int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	const pq = "SELECT COUNT(*) FROM pp"
	runStream(pq)
	if qsp, _ := runStream(pq); !qsp.Cached() {
		t.Fatal("partitioned repeat missed the cache")
	}
	if err := pt.Insert([]int64{4}); err != nil {
		t.Fatal(err)
	}
	qsp2, prows := runStream(pq)
	if qsp2.Cached() {
		t.Fatal("partitioned insert did not invalidate")
	}
	if prows[0][0] != 4 {
		t.Fatalf("partitioned count = %v, want 4", prows[0][0])
	}
}

// TestOversizedResultsNotCached pins the cache's size bound at the
// facade: a projection wider than one stream chunk streams normally
// but never becomes a cache entry, so a repeat run scans again.
func TestOversizedResultsNotCached(t *testing.T) {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 3, CacheEntries: 8})
	defer db.Close()
	tab, err := db.CreateTable("w", "a")
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, 10_000)
	for i := range vals {
		vals[i] = int64(i)
	}
	if err := tab.InsertColumn("a", vals); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT a FROM w"
	if res, err := db.Query(q); err != nil || len(res.Rows) != len(vals) {
		t.Fatalf("first run: %v rows=%d", err, len(res.Rows))
	}
	qs, err := db.QueryStream(q)
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()
	if qs.Cached() {
		t.Fatal("oversized result was cached")
	}
}
