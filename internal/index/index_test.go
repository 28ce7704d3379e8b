package index

import (
	"testing"
	"testing/quick"

	"amnesiadb/internal/table"
	"amnesiadb/internal/xrand"
)

func tbl(t *testing.T, vals ...int64) *table.Table {
	t.Helper()
	tb := table.New("t", "a")
	if _, err := tb.AppendSingleColumn(vals); err != nil {
		t.Fatal(err)
	}
	return tb
}

func randTable(t *testing.T, n int, seed uint64) (*table.Table, []int64) {
	t.Helper()
	src := xrand.New(seed)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = src.Int63n(1000)
	}
	return tbl(t, vals...), vals
}

func naiveScan(t *table.Table, vals []int64, lo, hi int64) []int32 {
	var out []int32
	for i, v := range vals {
		if v >= lo && v < hi && t.IsActive(i) {
			out = append(out, int32(i))
		}
	}
	return out
}

func sameRows(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSortedScanMatchesNaive(t *testing.T) {
	tb, vals := randTable(t, 500, 7)
	src := xrand.New(8)
	for i := 0; i < 500; i++ {
		if src.Bool(0.3) {
			tb.Forget(i)
		}
	}
	s, err := NewSorted(tb, "a")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int64{{0, 1000}, {100, 200}, {999, 1000}, {0, 0}} {
		got := s.Scan(tb, r[0], r[1])
		if want := naiveScan(tb, vals, r[0], r[1]); !sameRows(got, want) {
			t.Fatalf("sorted scan [%d,%d): got %v, want %v", r[0], r[1], got, want)
		}
	}
}

func TestSortedScanFiltersPostBuildForgetting(t *testing.T) {
	tb, vals := randTable(t, 200, 9)
	s, err := NewSorted(tb, "a")
	if err != nil {
		t.Fatal(err)
	}
	// Forget after the index was built; scan must still be correct.
	for i := 0; i < 200; i += 2 {
		tb.Forget(i)
	}
	got := s.Scan(tb, 0, 1000)
	if want := naiveScan(tb, vals, 0, 1000); !sameRows(got, want) {
		t.Fatalf("post-forget scan wrong: %d vs %d rows", len(got), len(want))
	}
}

func TestSortedPruneForgotten(t *testing.T) {
	tb, vals := randTable(t, 300, 10)
	s, err := NewSorted(tb, "a")
	if err != nil {
		t.Fatal(err)
	}
	before := s.Entries()
	for i := 0; i < 300; i += 3 {
		tb.Forget(i)
	}
	removed := s.PruneForgotten(tb)
	if removed != 100 {
		t.Fatalf("pruned %d entries, want 100", removed)
	}
	if s.Entries() != before-100 {
		t.Fatalf("entries = %d", s.Entries())
	}
	if s.SizeBytes() != s.Entries()*12 {
		t.Fatalf("size accounting wrong")
	}
	got := s.Scan(tb, 0, 1000)
	if want := naiveScan(tb, vals, 0, 1000); !sameRows(got, want) {
		t.Fatal("scan after prune wrong")
	}
}

func TestSortedRebuildAfterAppend(t *testing.T) {
	tb, _ := randTable(t, 100, 11)
	s, err := NewSorted(tb, "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AppendSingleColumn([]int64{5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(tb); err != nil {
		t.Fatal(err)
	}
	if s.Entries() != 103 {
		t.Fatalf("entries after rebuild = %d", s.Entries())
	}
}

func TestSortedEmptyTable(t *testing.T) {
	tb := table.New("t", "a")
	s, err := NewSorted(tb, "a")
	if err != nil {
		t.Fatal(err)
	}
	if s.Entries() != 0 || len(s.Scan(tb, 0, 10)) != 0 {
		t.Fatal("empty index misbehaved")
	}
}

func TestPropertySortedMatchesNaive(t *testing.T) {
	// Sorted must return the naive scan's row set for any data and any
	// range.
	f := func(raw []uint16, loRaw, hiRaw uint16, forget []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int64, len(raw))
		for i, r := range raw {
			vals[i] = int64(r % 1000)
		}
		tb := table.New("t", "a")
		if _, err := tb.AppendSingleColumn(vals); err != nil {
			return false
		}
		for _, fi := range forget {
			tb.Forget(int(fi) % len(vals))
		}
		lo, hi := int64(loRaw%1000), int64(hiRaw%1000)
		if lo > hi {
			lo, hi = hi, lo
		}
		s, err := NewSorted(tb, "a")
		if err != nil {
			return false
		}
		return sameRows(naiveScan(tb, vals, lo, hi), s.Scan(tb, lo, hi))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSortedScan(b *testing.B) {
	src := xrand.New(1)
	tb := table.New("t", "a")
	vals := make([]int64, 1<<18)
	for i := range vals {
		vals[i] = src.Int63n(1 << 18)
	}
	if _, err := tb.AppendSingleColumn(vals); err != nil {
		b.Fatal(err)
	}
	idx, err := NewSorted(tb, "a")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = idx.Scan(tb, 1000, 2000)
	}
}
