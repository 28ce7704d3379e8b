package coldstore

import (
	"testing"

	"amnesiadb/internal/table"
)

func tbl(t *testing.T, vals ...int64) *table.Table {
	t.Helper()
	tb := table.New("t", "a")
	if _, err := tb.AppendSingleColumn(vals); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestDemoteMovesForgotten(t *testing.T) {
	tb := tbl(t, 10, 20, 30, 40)
	tb.Forget(1)
	tb.Forget(3)
	s := New(tb, Glacier2016)
	if n := s.Demote(); n != 2 {
		t.Fatalf("demoted %d, want 2", n)
	}
	if s.Tuples() != 2 {
		t.Fatalf("cold tuples = %d", s.Tuples())
	}
	// Idempotent: re-demoting the same tuples is a no-op.
	if n := s.Demote(); n != 0 {
		t.Fatalf("re-demote moved %d", n)
	}
}

func TestDemoteAccountsBytes(t *testing.T) {
	tb := tbl(t, 1, 2, 3)
	tb.Forget(0)
	s := New(tb, Glacier2016)
	s.Demote()
	if s.BytesStored() != 12 { // one column: 8 + 4
		t.Fatalf("bytes stored = %d", s.BytesStored())
	}
}

func TestRecoverReactivates(t *testing.T) {
	tb := tbl(t, 10, 20, 30)
	tb.Forget(1)
	s := New(tb, Glacier2016)
	s.Demote()
	lat, err := s.Recover([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if lat != Glacier2016.RetrievalLatency {
		t.Fatalf("latency = %v", lat)
	}
	if !tb.IsActive(1) {
		t.Fatal("recovered tuple not active")
	}
	if s.Tuples() != 0 || s.BytesStored() != 0 {
		t.Fatalf("cold tier not emptied: %d tuples, %d bytes", s.Tuples(), s.BytesStored())
	}
}

func TestRecoverUnknownPosition(t *testing.T) {
	tb := tbl(t, 1, 2)
	s := New(tb, Glacier2016)
	if _, err := s.Recover([]int{0}); err == nil {
		t.Fatal("recovering a hot tuple succeeded")
	}
}

func TestRecoverRange(t *testing.T) {
	tb := tbl(t, 10, 20, 30, 40, 50)
	for i := 0; i < 5; i++ {
		tb.Forget(i)
	}
	s := New(tb, Glacier2016)
	s.Demote()
	hits, _, err := s.RecoverRange("a", 20, 45)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 || hits[0] != 1 || hits[2] != 3 {
		t.Fatalf("hits = %v", hits)
	}
	for _, p := range hits {
		if !tb.IsActive(p) {
			t.Fatalf("tuple %d not reactivated", p)
		}
	}
	if s.Tuples() != 2 {
		t.Fatalf("cold residents = %d, want 2", s.Tuples())
	}
}

func TestRecoverRangeUnknownColumn(t *testing.T) {
	tb := tbl(t, 1)
	s := New(tb, Glacier2016)
	if _, _, err := s.RecoverRange("zz", 0, 1); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestBillTracksCosts(t *testing.T) {
	tb := tbl(t, 1, 2, 3, 4)
	for i := 0; i < 4; i++ {
		tb.Forget(i)
	}
	s := New(tb, Glacier2016)
	s.Demote()
	bill := s.Bill()
	if bill.StoragePerYear <= 0 {
		t.Fatalf("storage bill = %v", bill.StoragePerYear)
	}
	if bill.RetrievalTotal != 0 || bill.Retrievals != 0 {
		t.Fatalf("retrieval bill before recovery: %+v", bill)
	}
	if _, err := s.Recover([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	bill = s.Bill()
	if bill.RetrievalTotal <= 0 || bill.Retrievals != 1 {
		t.Fatalf("retrieval bill after recovery: %+v", bill)
	}
}

func TestDemoteAfterVacuumIsSafe(t *testing.T) {
	// Lifecycle: forget → demote → recover one → vacuum. The hot Vacuum
	// reclaims the demoted tuples too, so the tier drops its residents:
	// recovering afterwards finds nothing (instead of reactivating
	// whatever the compaction moved onto the old positions), and the
	// bill keeps its retrieval history.
	tb := tbl(t, 10, 20, 30, 40)
	tb.Forget(1)
	tb.Forget(2)
	s := New(tb, Glacier2016)
	s.Demote()
	if _, err := s.Recover([]int{1}); err != nil {
		t.Fatal(err)
	}
	tb.Vacuum()
	s.Reclaim()
	if s.Tuples() != 0 || s.BytesStored() != 0 {
		t.Fatalf("after reclaim: %d cold tuples, %d bytes", s.Tuples(), s.BytesStored())
	}
	hits, _, err := s.RecoverRange("a", 0, 100)
	if err != nil || len(hits) != 0 {
		t.Fatalf("recover after reclaim = %v, %v; want nothing", hits, err)
	}
	if b := s.Bill(); b.Retrievals != 1 || b.RetrievalTotal <= 0 || b.StoragePerYear != 0 {
		t.Fatalf("bill after reclaim = %+v, want the one retrieval kept and no storage", b)
	}
}
