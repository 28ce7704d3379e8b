package amnesiadb_test

// Regression tests for lock-order fixes. The hierarchy is checked at
// run time by internal/lockrank under `make race`, so a fix is pinned
// by a test that drives the fixed path there: a reintroduced descent
// panics with both locks named. The dropped-handle fixes are pinned by
// TestHandleContract (handle_test.go).

import (
	"testing"

	"amnesiadb"
)

// TestQueryConcurrentSnapshotNoDeadlock pins the lock-order fix in
// QueryStreamCtx: it used to re-enter db.mu inside its per-table loop
// while already holding earlier relations' read locks, which inverts
// the catalog → relation hierarchy and deadlocks against Snapshot's
// lockCatalog (db.mu held exclusively, relation locks taken in the
// same name order). Queries over two tables racing snapshots hit that
// window; with the fix the catalog lookup completes before any
// relation lock is taken, so this must run to completion.
func TestQueryConcurrentSnapshotNoDeadlock(t *testing.T) {
	dir := t.TempDir()
	db, err := amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 7, Fsync: "off"})
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	defer db.Close()
	for _, name := range []string{"qa", "qb"} {
		tb, err := db.CreateTable(name, "v")
		if err != nil {
			t.Fatalf("CreateTable %s: %v", name, err)
		}
		if err := tb.InsertColumn("v", []int64{1, 2, 3, 4}); err != nil {
			t.Fatalf("insert %s: %v", name, err)
		}
	}
	const iters = 400
	const queryWorkers = 3
	done := make(chan error, 1+queryWorkers)
	go func() {
		for i := 0; i < iters; i++ {
			if err := db.Snapshot(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for w := 0; w < queryWorkers; w++ {
		go func() {
			for i := 0; i < iters; i++ {
				rows, err := db.Query("SELECT qa.v, qb.v FROM qa JOIN qb ON qa.v = qb.v")
				if err != nil {
					done <- err
					return
				}
				_ = rows
			}
			done <- nil
		}()
	}
	for i := 0; i < 1+queryWorkers; i++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent query/snapshot: %v", err)
		}
	}
}
