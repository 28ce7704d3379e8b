package amnesiadb

import (
	"context"
	"sync"
	"testing"

	"amnesiadb/internal/xrand"
)

func TestPartitionedTableLifecycle(t *testing.T) {
	db := Open(Options{Seed: 1})
	pt, err := db.CreatePartitionedTable("pt", "a", 1000, 4, "uniform", 400)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Name() != "pt" {
		t.Fatalf("name = %q", pt.Name())
	}
	src := xrand.New(2)
	vals := make([]int64, 2000)
	for i := range vals {
		vals[i] = src.Int63n(1000)
	}
	if err := pt.Insert(vals); err != nil {
		t.Fatal(err)
	}
	s := pt.Stats()
	if s.Tuples != 2000 || s.Active > 400 {
		t.Fatalf("stats = %+v", s)
	}
	got, err := pt.Select(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != s.Active {
		t.Fatalf("full select = %d values, active = %d", len(got), s.Active)
	}
	rf, mf, pf, err := pt.Precision(context.Background(), 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if rf+mf != 2000 || pf <= 0 || pf > 1 {
		t.Fatalf("precision rf=%d mf=%d pf=%v", rf, mf, pf)
	}
}

func TestPartitionedAdaptMovesBudget(t *testing.T) {
	db := Open(Options{Seed: 3})
	pt, err := db.CreatePartitionedTable("pt", "a", 1000, 4, "uniform", 400)
	if err != nil {
		t.Fatal(err)
	}
	src := xrand.New(4)
	vals := make([]int64, 3000)
	for i := range vals {
		vals[i] = src.Int63n(1000)
	}
	if err := pt.Insert(vals); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 40; q++ {
		if _, err := pt.Select(750, 1000); err != nil {
			t.Fatal(err)
		}
	}
	pt.Adapt()
	parts := pt.Partitions()
	hot := parts[3]
	if hot.Budget <= parts[0].Budget {
		t.Fatalf("hot shard budget %d not above cold %d", hot.Budget, parts[0].Budget)
	}
	total := 0
	for _, p := range parts {
		total += p.Budget
		if p.Active > p.Budget {
			t.Fatalf("shard over budget: %+v", p)
		}
	}
	if total != 400 {
		t.Fatalf("budget total drifted: %d", total)
	}
}

func TestPartitionedNameCollision(t *testing.T) {
	db := Open(Options{Seed: 5})
	if _, err := db.CreateTable("x", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreatePartitionedTable("x", "a", 100, 2, "fifo", 10); err == nil {
		t.Fatal("name collision accepted")
	}
	if _, err := db.CreatePartitionedTable("y", "a", 100, 2, "bogus", 10); err == nil {
		t.Fatal("bad strategy accepted")
	}
	// Reserved name also blocks flat tables.
	if _, err := db.CreatePartitionedTable("z", "a", 100, 2, "fifo", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("z", "a"); err == nil {
		t.Fatal("flat table over partitioned name accepted")
	}
}

// TestPartitionedConcurrentInsertSelectAdapt interleaves inserts,
// parallel selects, precision sweeps and online Adapts on one
// partitioned table. Run under -race: it pins both the facade's
// read/write locking and the partition layer's atomic budgets.
func TestPartitionedConcurrentInsertSelectAdapt(t *testing.T) {
	db := Open(Options{Seed: 11, Parallelism: 4})
	pt, err := db.CreatePartitionedTable("pt", "a", 1000, 8, "uniform", 800)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := xrand.New(uint64(20 + g))
			for i := 0; i < 30; i++ {
				vals := make([]int64, 50)
				for j := range vals {
					vals[j] = src.Int63n(1000)
				}
				if err := pt.Insert(vals); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lo := int64(g * 300)
			for i := 0; i < 60; i++ {
				if _, err := pt.Select(lo, lo+400); err != nil {
					t.Error(err)
					return
				}
				if _, _, _, err := pt.Precision(context.Background(), lo, lo+400); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			pt.Adapt()
		}
	}()
	wg.Wait()
	pt.Adapt()
	total := 0
	for _, p := range pt.Partitions() {
		total += p.Budget
		if p.Active > p.Budget {
			t.Fatalf("shard over budget: %+v", p)
		}
	}
	if total != 800 {
		t.Fatalf("budget total drifted: %d", total)
	}
}
