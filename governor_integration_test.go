package amnesiadb_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amnesiadb"
	"amnesiadb/internal/server"
	"amnesiadb/internal/xrand"
)

// TestOverBudgetJoinFailsAlone pins per-query blast-radius isolation:
// a join whose build-side working set exceeds -max-query-bytes dies
// with ErrResourceExhausted, while concurrent small queries on the same
// instance complete byte-identically to their serial runs.
func TestOverBudgetJoinFailsAlone(t *testing.T) {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 11, MaxQueryBytes: 256 << 10})
	defer db.Close()

	mk := func(name string, n int, mod int64) {
		t.Helper()
		tab, err := db.CreateTable(name, "k", "v")
		if err != nil {
			t.Fatal(err)
		}
		src := xrand.New(uint64(n))
		ks := make([]int64, n)
		vs := make([]int64, n)
		for i := range ks {
			ks[i] = src.Int63n(mod)
			vs[i] = int64(i)
		}
		if err := tab.Insert(map[string][]int64{"k": ks, "v": vs}); err != nil {
			t.Fatal(err)
		}
	}
	// The join sides: ~50k rows each means ~600 KB of pooled chunks per
	// side just to gather the build input — far over the 256 KB budget.
	mk("jl", 50_000, 1<<20)
	mk("jr", 50_000, 1<<20)
	// The bystander table is two batches; its queries stay well under
	// budget.
	mk("small", 2_000, 64)

	smalls := []string{
		"SELECT COUNT(*) FROM small",
		"SELECT SUM(k) FROM small WHERE k < 32",
		"SELECT v FROM small WHERE k < 4 LIMIT 50",
		"SELECT AVG(k) FROM small",
	}
	serial := make([]*amnesiadb.QueryResult, len(smalls))
	for i, q := range smalls {
		r, err := db.Query(q)
		if err != nil {
			t.Fatalf("serial %q: %v", q, err)
		}
		serial[i] = r
	}

	join := "SELECT jl.v, jr.v FROM jl JOIN jr ON jl.k = jr.k"
	var wg sync.WaitGroup
	joinErrs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := db.Query(join)
			joinErrs <- err
		}()
	}
	smallErrs := make(chan error, len(smalls)*8)
	for round := 0; round < 8; round++ {
		for i, q := range smalls {
			wg.Add(1)
			go func(i int, q string) {
				defer wg.Done()
				r, err := db.Query(q)
				if err != nil {
					smallErrs <- fmt.Errorf("%q: %w", q, err)
					return
				}
				if !reflect.DeepEqual(r, serial[i]) {
					smallErrs <- fmt.Errorf("%q diverged from serial run", q)
					return
				}
				smallErrs <- nil
			}(i, q)
		}
	}
	wg.Wait()
	close(joinErrs)
	close(smallErrs)
	for err := range joinErrs {
		if !errors.Is(err, amnesiadb.ErrResourceExhausted) {
			t.Fatalf("over-budget join: got %v, want ErrResourceExhausted", err)
		}
	}
	for err := range smallErrs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// The failed joins must not leak charges: the ledger drains to zero
	// once no queries are live.
	st := db.GovernorStats()
	if st.ActiveQueries != 0 || st.UsedBytes != 0 {
		t.Fatalf("governor ledger not drained: %+v", st)
	}
	if st.PeakBytes == 0 {
		t.Fatal("governor never observed any usage")
	}
}

// TestOverBudgetOrderByFails covers the sort path: the ORDER BY working
// set charges the quota, so an unclustered sort over a big qualifying
// set dies with ErrResourceExhausted instead of allocating its runs.
func TestOverBudgetOrderByFails(t *testing.T) {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 12, MaxQueryBytes: 64 << 10})
	defer db.Close()
	tab, err := db.CreateTable("t", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	src := xrand.New(5)
	n := 100_000
	av := make([]int64, n)
	bv := make([]int64, n)
	for i := range av {
		av[i] = src.Int63n(1 << 20)
		bv[i] = int64(i)
	}
	if err := tab.Insert(map[string][]int64{"a": av, "b": bv}); err != nil {
		t.Fatal(err)
	}
	// ~100k qualifying rows × 8 bytes of sort permutation ≈ 800 KB.
	_, err = db.Query("SELECT a FROM t ORDER BY a LIMIT 10")
	if !errors.Is(err, amnesiadb.ErrResourceExhausted) {
		t.Fatalf("over-budget ORDER BY: got %v, want ErrResourceExhausted", err)
	}
	// A selective sort fits and still works on the same instance.
	if _, err := db.Query("SELECT a FROM t WHERE a < 2048 ORDER BY a LIMIT 10"); err != nil {
		t.Fatalf("small ORDER BY after kill: %v", err)
	}
}

// TestOverloadShedsOverBudgetQueries is the overload soak: 64 HTTP
// clients drive a 256 Ki-row table through the server under a 64 KiB
// per-query budget. The unclustered sort's working set (~8 bytes per
// qualifying row over half the domain) dwarfs the budget, so every sort
// must answer 413 while every small statement around it answers 200,
// and once the load stops the governor's ledger and the goroutine count
// are back where they started. CI runs it under GOMEMLIMIT=512MiB: the
// governor sheds over-budget work instead of the process growing.
func TestOverloadShedsOverBudgetQueries(t *testing.T) {
	const (
		n        = 256 << 10
		clients  = 64
		requests = 4000
	)
	db := amnesiadb.Open(amnesiadb.Options{Seed: 1, CacheEntries: 256, MaxQueryBytes: 64 << 10})
	defer db.Close()
	tab, err := db.CreateTable("big", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	src := xrand.New(7)
	as := make([]int64, n)
	bs := make([]int64, n)
	for i := range as {
		as[i] = src.Int63n(1 << 20)
		bs[i] = int64(i)
	}
	if err := tab.Insert(map[string][]int64{"a": as, "b": bs}); err != nil {
		t.Fatal(err)
	}

	// Half the traffic is one hot aggregate, a quarter rotates through
	// SUM variants, and the last quarter splits 3:1:1 between the sort
	// and two selective projections that stream real rows.
	const sortSQL = "SELECT a FROM big WHERE a < 524288 ORDER BY a LIMIT 100"
	statement := func(i int) string {
		switch {
		case i%2 == 0:
			return "SELECT AVG(a) FROM big WHERE a < 524288"
		case i%4 == 1:
			return fmt.Sprintf("SELECT SUM(a) FROM big WHERE a < %d", 1<<(10+i/4%8))
		}
		switch i / 4 % 5 {
		case 3:
			return "SELECT b FROM big WHERE a < 1024"
		case 4:
			return "SELECT a, b FROM big WHERE a < 1024 LIMIT 100"
		default:
			return sortSQL
		}
	}

	baseline := runtime.NumGoroutine()
	ts := httptest.NewServer(server.New(db))
	tr := &http.Transport{MaxIdleConnsPerHost: clients}
	client := &http.Client{Transport: tr}
	var next, shed, served atomic.Int64
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < requests; i = int(next.Add(1) - 1) {
				q := statement(i)
				resp, err := client.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"sql":"`+q+`"}`))
				if err != nil {
					errs <- err
					return
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				want, count := http.StatusOK, &served
				if q == sortSQL {
					want, count = http.StatusRequestEntityTooLarge, &shed
				}
				if resp.StatusCode != want {
					errs <- fmt.Errorf("%q answered %d, want %d", q, resp.StatusCode, want)
					return
				}
				count.Add(1)
			}
		}()
	}
	wg.Wait()
	ts.Close()
	tr.CloseIdleConnections()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	t.Logf("%d sorts answered 413, %d other statements answered 200", shed.Load(), served.Load())
	if shed.Load()+served.Load() != requests {
		t.Fatalf("%d sorts + %d others answered, want %d requests", shed.Load(), served.Load(), requests)
	}

	st := db.GovernorStats()
	if st.ActiveQueries != 0 || st.UsedBytes != 0 {
		t.Fatalf("governor ledger not drained after the soak: %+v", st)
	}
	t.Logf("governor peak usage: %d bytes", st.PeakBytes)
	waitGoroutines(t, baseline)
}

// TestQueryDeadlineExpires pins the per-query wall-clock bound: a query
// running past MaxQueryDuration is cancelled at a morsel boundary with
// the typed deadline error (or the context's own deadline, whichever
// surfaces first) while an instance without the bound runs it fine.
func TestQueryDeadlineExpires(t *testing.T) {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 13, MaxQueryDuration: time.Nanosecond})
	defer db.Close()
	tab, err := db.CreateTable("t", "a")
	if err != nil {
		t.Fatal(err)
	}
	src := xrand.New(9)
	n := 1 << 20
	av := make([]int64, n)
	for i := range av {
		av[i] = src.Int63n(1 << 20)
	}
	if err := tab.InsertColumn("a", av); err != nil {
		t.Fatal(err)
	}
	_, err = db.Query("SELECT SUM(a) FROM t")
	if err == nil {
		t.Fatal("1ns deadline produced a full result")
	}
	if !errors.Is(err, amnesiadb.ErrQueryDeadline) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired query: got %v, want deadline error", err)
	}
}

// TestStalledStreamSpillsAndReleasesLocks pins spill-on-stall: an
// unselective value-only stream whose backlog far exceeds the
// pipeline's bounded buffers normally holds its table read lock
// hostage to the consumer. With StallDetach armed, a consumer idle past
// the threshold gets its remaining chunks drained into a governed heap
// buffer, the scan completes, the lock drops (writer makes progress),
// and the tail is still delivered byte-identically.
func TestStalledStreamSpillsAndReleasesLocks(t *testing.T) {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 14, StallDetach: 50 * time.Millisecond})
	defer db.Close()
	tab, err := db.CreateTable("big", "a")
	if err != nil {
		t.Fatal(err)
	}
	const n = 262_144 // 256 chunks — far beyond the pipeline buffer
	src := xrand.New(3)
	av := make([]int64, n)
	for i := range av {
		av[i] = src.Int63n(1 << 18)
	}
	if err := tab.InsertColumn("a", av); err != nil {
		t.Fatal(err)
	}

	// The expected rows, from a plain materialized run.
	want, err := db.Query("SELECT a FROM big")
	if err != nil {
		t.Fatal(err)
	}

	qs, err := db.QueryStream("SELECT a FROM big")
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()
	// Consume one chunk, then stall. The first Next also proves the
	// pipeline was live before the detach.
	first, err := qs.Next()
	if err != nil || first == nil {
		t.Fatalf("first chunk: %v %v", first, err)
	}

	// A writer must get through while the consumer stalls: the monitor
	// spills the backlog, the scan finishes, the lock drops.
	done := make(chan error, 1)
	go func() { done <- tab.InsertColumn("a", []int64{1 << 19}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("writer still blocked: stalled stream never spilled and released its lock")
	}

	// Drain the tail; rows must be byte-identical to the serial result.
	got := make([][]float64, 0, n)
	got = append(got, first...)
	for {
		rows, err := qs.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rows == nil {
			break
		}
		got = append(got, rows...)
	}
	if len(got) != len(want.Rows) {
		t.Fatalf("spilled stream delivered %d rows, want %d", len(got), len(want.Rows))
	}
	if !reflect.DeepEqual(got, want.Rows) {
		t.Fatal("spilled stream diverged from the serial result")
	}

	// Spilled buffers were recycled on drain: the ledger is empty.
	if st := db.GovernorStats(); st.ActiveQueries != 0 || st.UsedBytes != 0 {
		t.Fatalf("governor ledger not drained after spill: %+v", st)
	}
}

// TestStalledOrderedStreamSpills runs the same stall through the
// clustered-ascending ORDER BY path — the other early-release stream
// shape that arms spill-on-stall. The table is partitioned into more
// shards (one chunk each) than a two-worker pipeline buffers, so the
// producers stall with the relation's read lock held until the spill.
func TestStalledOrderedStreamSpills(t *testing.T) {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 15, PoolSize: 2, StallDetach: 50 * time.Millisecond})
	defer db.Close()
	const n, shards = 131_072, 64
	tab, err := db.CreatePartitionedTable("big", "a", n, shards, "fifo", n+1)
	if err != nil {
		t.Fatal(err)
	}
	av := make([]int64, n)
	for i := range av {
		av[i] = int64(n - 1 - i) // descending: every shard needs its sort
	}
	if err := tab.Insert(av); err != nil {
		t.Fatal(err)
	}
	want, err := db.Query("SELECT a FROM big ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	qs, err := db.QueryStream("SELECT a FROM big ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()
	first, err := qs.Next()
	if err != nil || first == nil {
		t.Fatalf("first chunk: %v %v", first, err)
	}
	done := make(chan error, 1)
	go func() { done <- tab.Insert([]int64{n / 2}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("writer still blocked behind a stalled ORDER BY stream")
	}
	got := append([][]float64{}, first...)
	for {
		rows, err := qs.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rows == nil {
			break
		}
		got = append(got, rows...)
	}
	if !reflect.DeepEqual(got, want.Rows) {
		t.Fatalf("spilled ORDER BY stream diverged: %d rows vs %d", len(got), len(want.Rows))
	}
}
