package amnesiadb_test

import (
	"context"
	"sync"
	"testing"

	"amnesiadb"
	"amnesiadb/internal/xrand"
)

// TestConcurrentFacadeUse hammers one table from many goroutines mixing
// inserts, selects, aggregates, SQL, policy flips and maintenance. Run
// under -race (the CI default here) it proves the facade's thread-safety
// contract; the final invariants prove no update was lost.
func TestConcurrentFacadeUse(t *testing.T) {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 1})
	tb, err := db.CreateTable("t", "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.SetPolicy(amnesiadb.Policy{Strategy: "uniform", Budget: 500}); err != nil {
		t.Fatal(err)
	}

	const (
		workers          = 8
		roundsPerWorker  = 25
		insertsPerWorker = 20
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := xrand.New(uint64(w) + 10)
			for r := 0; r < roundsPerWorker; r++ {
				switch r % 5 {
				case 0:
					vals := make([]int64, insertsPerWorker)
					for i := range vals {
						vals[i] = src.Int63n(100000)
					}
					if err := tb.InsertColumn("a", vals); err != nil {
						errs <- err
						return
					}
				case 1:
					if _, err := tb.Select("a", amnesiadb.Range(0, 50000)); err != nil {
						errs <- err
						return
					}
				case 2:
					if _, err := db.Query("SELECT COUNT(*) FROM t WHERE a < 90000"); err != nil {
						errs <- err
						return
					}
				case 3:
					if _, _, _, err := tb.Precision(context.Background(), "a", amnesiadb.All()); err != nil {
						errs <- err
						return
					}
				case 4:
					_ = tb.Stats()
					_, _ = tb.ActivePerBatch()
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	s := tb.Stats()
	wantInserted := workers * (roundsPerWorker / 5) * insertsPerWorker
	if s.Tuples != wantInserted {
		t.Fatalf("stored %d tuples, want %d", s.Tuples, wantInserted)
	}
	if s.Active > 500 {
		t.Fatalf("budget exceeded under concurrency: %d", s.Active)
	}
}

// TestParallelReaders exercises the RWMutex read path: a static table
// serves many concurrent readers mixing Select, SQL, GroupBy, Aggregate
// and Precision. Every reader must see the identical result set (no
// writer runs), and the access-frequency feedback must come out exact —
// proof that batched TouchMany flushes survive read parallelism.
func TestParallelReaders(t *testing.T) {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 7})
	tb, err := db.CreateTable("r", "a")
	if err != nil {
		t.Fatal(err)
	}
	src := xrand.New(3)
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = src.Int63n(10000)
	}
	if err := tb.InsertColumn("a", vals); err != nil {
		t.Fatal(err)
	}
	pred := amnesiadb.Range(1000, 9000)
	want, err := tb.Select("a", pred)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 16
	const rounds = 10
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				res, err := tb.Select("a", pred)
				if err != nil {
					errs <- err
					return
				}
				if res.Count() != want.Count() {
					t.Errorf("reader saw %d rows, want %d", res.Count(), want.Count())
					return
				}
				if _, err := db.Query("SELECT a FROM r WHERE a >= 1000 AND a < 9000 LIMIT 5"); err != nil {
					errs <- err
					return
				}
				if _, err := tb.Aggregate("a", pred); err != nil {
					errs <- err
					return
				}
				if _, err := tb.GroupBy("a", pred, 1000); err != nil {
					errs <- err
					return
				}
				if _, _, _, err := tb.Precision(context.Background(), "a", pred); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentTableCreation checks the catalog itself is race-free.
func TestConcurrentTableCreation(t *testing.T) {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 2})
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := "t" + string(rune('a'+w))
			if _, err := db.CreateTable(name, "x"); err != nil {
				t.Error(err)
				return
			}
			if _, ok := db.Table(name); !ok {
				t.Errorf("table %s vanished", name)
			}
			_ = db.Relations()
		}()
	}
	wg.Wait()
	if rels := db.Relations(); len(rels) != 16 {
		t.Fatalf("relations = %v", rels)
	}
}
