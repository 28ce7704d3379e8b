package amnesiadb_test

// The value-order access path seen from the facade: what it costs in
// Stats, which statement shapes get an index and which never do, and
// narrow readers racing a writer — and each other — to the first build.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"amnesiadb"
	"amnesiadb/internal/xrand"
)

// queryAll runs stmt through the facade and returns its rows.
func queryAll(t testing.TB, db *amnesiadb.DB, stmt string) [][]float64 {
	t.Helper()
	res, err := db.Query(stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return res.Rows
}

// randomBatch draws n rows per column, uniform over [0, domain).
func randomBatch(src *xrand.Source, cols []string, n int, domain int64) map[string][]int64 {
	batch := make(map[string][]int64, len(cols))
	for _, c := range cols {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = src.Int63n(domain)
		}
		batch[c] = vals
	}
	return batch
}

// insertRandom inserts a randomBatch.
func insertRandom(t testing.TB, tb *amnesiadb.Table, src *xrand.Source, cols []string, n int, domain int64) {
	t.Helper()
	if err := tb.Insert(randomBatch(src, cols, n, domain)); err != nil {
		t.Fatal(err)
	}
}

func TestIndexBytesInStats(t *testing.T) {
	const n = 128 << 10
	db := amnesiadb.Open(amnesiadb.Options{Seed: 1})
	tb, err := db.CreateTable("mem", "id", "score")
	if err != nil {
		t.Fatal(err)
	}
	insertRandom(t, tb, xrand.New(2), []string{"id", "score"}, n, n)
	if st := tb.Stats(); st.IndexBytes != 0 {
		t.Fatalf("IndexBytes = %d before any query", st.IndexBytes)
	}
	queryAll(t, db, "SELECT COUNT(*) FROM mem WHERE id >= 0 AND id < 1000000") // wide: scans
	if st := tb.Stats(); st.IndexBytes != 0 {
		t.Fatalf("a wide query built a %d-byte index", st.IndexBytes)
	}
	queryAll(t, db, "SELECT id, score FROM mem WHERE id >= 500 AND id < 564 ORDER BY score LIMIT 10")
	st := tb.Stats()
	if st.IndexBytes != 4*st.Tuples {
		t.Fatalf("IndexBytes = %d after a narrow query over %d rows, want 4 a row", st.IndexBytes, st.Tuples)
	}
	if err := tb.SetPolicy(amnesiadb.Policy{Strategy: "uniform", Budget: n / 2}); err != nil {
		t.Fatal(err)
	}
	if err := tb.EnforceBudget(); err != nil {
		t.Fatal(err)
	}
	if got := tb.Stats().IndexBytes; got != st.IndexBytes {
		t.Fatalf("forgetting changed IndexBytes %d -> %d; only Vacuum drops entries", st.IndexBytes, got)
	}
	if err := tb.Vacuum(); err != nil {
		t.Fatal(err)
	}
	if after := tb.Stats(); after.IndexBytes != 4*after.Tuples || after.IndexBytes >= st.IndexBytes {
		t.Fatalf("after Vacuum IndexBytes = %d over %d rows, before %d", after.IndexBytes, after.Tuples, st.IndexBytes)
	}
}

// TestWorkloadShapesIndexOnlyWhereNarrow replays the benchmark
// workloads' statement shapes at their full sizes and checks the build
// rule picks exactly the relations it was meant to: the 64-id top-k and
// COUNT of the agent-memory shapes build an index on mem.id, while the
// big streaming scans (narrowest 0.1 % of 4 Mi rows), the ingest
// aggregates (1/16 of the domain) and every precision probe (1/64) scan
// and build nothing.
func TestWorkloadShapesIndexOnlyWhereNarrow(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 4 Mi-row table")
	}
	if raceEnabled {
		t.Skip("million-row loads under the race detector add nothing the race tests do not cover")
	}
	ctx := context.Background()
	probe := func(tb *amnesiadb.Table, col string, domain int64) {
		t.Helper()
		for i := int64(0); i < 32; i++ {
			lo := i * (domain / 32)
			if _, _, _, err := tb.Precision(ctx, col, amnesiadb.Range(lo, lo+domain/64)); err != nil {
				t.Fatal(err)
			}
		}
	}
	noIndex := func(name string, tb *amnesiadb.Table) {
		t.Helper()
		if n := tb.Stats().IndexBytes; n != 0 {
			t.Fatalf("%s built a %d-byte index", name, n)
		}
	}

	t.Run("scan_stream", func(t *testing.T) {
		const n, domain = 4 << 20, int64(1) << 30
		src := xrand.New(1)
		db := amnesiadb.Open(amnesiadb.Options{Seed: 1})
		tb, err := db.CreateTable("big", "a", "b")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			insertRandom(t, tb, src, []string{"a", "b"}, n/4, domain)
		}
		if err := tb.SetPolicy(amnesiadb.Policy{Strategy: "uniform", Budget: n * 3 / 4}); err != nil {
			t.Fatal(err)
		}
		if err := tb.EnforceBudget(); err != nil {
			t.Fatal(err)
		}
		for _, sel := range []float64{0.001, 0.01, 0.05, 0.25, 0.50} {
			w := int64(float64(domain) * sel)
			x := src.Int63n(domain - w)
			queryAll(t, db, fmt.Sprintf("SELECT COUNT(*) FROM big WHERE a >= %d AND a < %d", x, x+w))
			if sel < 0.25 {
				queryAll(t, db, fmt.Sprintf("SELECT a, b FROM big WHERE a >= %d AND a < %d", x, x+w))
			}
		}
		probe(tb, "a", domain)
		noIndex("scan_stream", tb)
	})

	t.Run("ingest_forget", func(t *testing.T) {
		const budget, batch, domain = 64 << 10, 4096, int64(1) << 30
		src := xrand.New(2)
		db := amnesiadb.Open(amnesiadb.Options{Seed: 2})
		tb, err := db.CreateTable("ev", "ts", "val")
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.SetPolicy(amnesiadb.Policy{Strategy: "rot", Budget: budget}); err != nil {
			t.Fatal(err)
		}
		insertRandom(t, tb, src, []string{"ts", "val"}, budget, domain)
		for op := 1; op <= 128; op++ {
			if op%8 == 0 {
				x := src.Int63n(domain - domain/16)
				queryAll(t, db, fmt.Sprintf("SELECT COUNT(*) FROM ev WHERE ts >= %d AND ts < %d", x, x+domain/16))
			} else {
				insertRandom(t, tb, src, []string{"ts", "val"}, batch, domain)
			}
			if op%64 == 0 {
				if err := tb.Vacuum(); err != nil {
					t.Fatal(err)
				}
			}
		}
		// The benchmark's coda: a Vacuum, then 16 batches, then the probes.
		if err := tb.Vacuum(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			insertRandom(t, tb, src, []string{"ts", "val"}, batch, domain)
		}
		probe(tb, "ts", domain)
		noIndex("ingest_forget", tb)
	})

	narrow := func(t *testing.T, db *amnesiadb.DB, tb *amnesiadb.Table, k int64) {
		t.Helper()
		queryAll(t, db, fmt.Sprintf("SELECT id, score FROM mem WHERE id >= %d AND id < %d ORDER BY score LIMIT 10", k, k+64))
		queryAll(t, db, fmt.Sprintf("SELECT COUNT(*) FROM mem WHERE id >= %d AND id < %d", k, k+64))
		if st := tb.Stats(); st.IndexBytes != 4*st.Tuples {
			t.Fatalf("narrow statements over %d rows left a %d-byte index, want 4 bytes a row", st.Tuples, st.IndexBytes)
		}
	}
	t.Run("hot_small", func(t *testing.T) {
		const n = 256 << 10
		db := amnesiadb.Open(amnesiadb.Options{Seed: 3})
		tb, err := db.CreateTable("mem", "id", "score")
		if err != nil {
			t.Fatal(err)
		}
		insertRandom(t, tb, xrand.New(3), []string{"id", "score"}, n, n)
		if err := tb.SetPolicy(amnesiadb.Policy{Strategy: "fifo", Budget: n - n/8}); err != nil {
			t.Fatal(err)
		}
		if err := tb.EnforceBudget(); err != nil {
			t.Fatal(err)
		}
		narrow(t, db, tb, 1234)
	})
	t.Run("mixed_amnesia", func(t *testing.T) {
		const budget, domain = 128 << 10, 256 << 10
		src := xrand.New(4)
		db := amnesiadb.Open(amnesiadb.Options{Seed: 4})
		tb, err := db.CreateTable("mem", "id", "score")
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.SetPolicy(amnesiadb.Policy{Strategy: "decay", Budget: budget}); err != nil {
			t.Fatal(err)
		}
		insertRandom(t, tb, src, []string{"id", "score"}, budget, domain)
		narrow(t, db, tb, 4321)
		insertRandom(t, tb, src, []string{"id", "score"}, 2048, domain)
		if err := tb.Vacuum(); err != nil {
			t.Fatal(err)
		}
		narrow(t, db, tb, 999)
	})
}

// TestNarrowReadersRaceWriterAndFirstBuild runs eight readers issuing
// narrow statements — released together, so several race to build the
// first index, and a reader that loses scans instead of waiting — while
// a writer inserts, enforces the budget and vacuums. Every answer must
// lie inside its range, and once the writer stops, narrow answers must
// equal a full scan's. Run under -race -tags amnesiadebug this is also
// the lock-order and data-race check of the build and the index
// maintenance.
func TestNarrowReadersRaceWriterAndFirstBuild(t *testing.T) {
	const budget, domain, readers = 96 << 10, 1 << 20, 8
	rounds := 40
	if testing.Short() || raceEnabled {
		rounds = 12
	}
	db := amnesiadb.Open(amnesiadb.Options{Seed: 5})
	tb, err := db.CreateTable("mem", "id")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.SetPolicy(amnesiadb.Policy{Strategy: "uniform", Budget: budget}); err != nil {
		t.Fatal(err)
	}
	insertRandom(t, tb, xrand.New(5), []string{"id"}, budget, domain)

	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			src := xrand.New(uint64(100 + r))
			<-start
			for i := 0; i < rounds; i++ {
				k := src.Int63n(domain - 256)
				res, err := db.Query(fmt.Sprintf("SELECT id FROM mem WHERE id >= %d AND id < %d", k, k+256))
				if err == nil {
					for _, row := range res.Rows {
						if v := int64(row[0]); v < k || v >= k+256 {
							err = fmt.Errorf("reader %d: id %d outside [%d, %d)", r, v, k, k+256)
							break
						}
					}
				}
				if err == nil {
					_, err = db.Query(fmt.Sprintf("SELECT COUNT(*) FROM mem WHERE id >= %d AND id < %d", k, k+256))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		src := xrand.New(6)
		<-start
		for i := 0; i < rounds; i++ {
			err := tb.Insert(randomBatch(src, []string{"id"}, 2048, domain))
			if err == nil && i%4 == 3 {
				err = tb.Vacuum()
			} else if err == nil {
				err = tb.EnforceBudget()
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := tb.Stats(); st.IndexBytes == 0 {
		t.Fatal("narrow readers built no index")
	}
	all := queryAll(t, db, "SELECT id FROM mem")
	for _, k := range []int64{0, 4096, domain / 2, domain - 256} {
		var want []float64
		for _, row := range all {
			if int64(row[0]) >= k && int64(row[0]) < k+256 {
				want = append(want, row[0])
			}
		}
		got := queryAll(t, db, fmt.Sprintf("SELECT id FROM mem WHERE id >= %d AND id < %d", k, k+256))
		if len(got) != len(want) {
			t.Fatalf("[%d, %d): %d rows from the index, %d from a full scan", k, k+256, len(got), len(want))
		}
		for i := range got {
			if got[i][0] != want[i] {
				t.Fatalf("[%d, %d): row %d is %v, full scan %v", k, k+256, i, got[i][0], want[i])
			}
		}
	}
}
