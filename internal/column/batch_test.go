package column

import (
	"testing"

	"amnesiadb/internal/bitvec"
	"amnesiadb/internal/xrand"
)

// buildColumn returns a column of n pseudo-random values over [0, domain)
// with the given block size, plus an active bitmap with roughly half the
// bits set.
func buildColumn(t *testing.T, n int, domain int64, blockSize int, seed uint64) (*Int64, *bitvec.Vector) {
	t.Helper()
	src := xrand.New(seed)
	c := NewWithBlockSize(blockSize)
	active := bitvec.New(n)
	for i := 0; i < n; i++ {
		c.Append(src.Int63n(domain))
		if src.Bool(0.5) {
			active.Set(i)
		}
	}
	return c, active
}

// TestScanBatchMatchesScanRange drives the batch kernel with deliberately
// small buffers across ragged block boundaries and checks that the
// concatenated batches reproduce the row-at-a-time ScanRange /
// ScanRangeActive output exactly.
func TestScanBatchMatchesScanRange(t *testing.T) {
	cases := []struct {
		name      string
		n         int
		domain    int64
		blockSize int
		batchSize int
		lo, hi    int64
		useActive bool
	}{
		{"single-partial-block", 10, 100, 16, 4, 20, 80, false},
		{"multi-block", 1000, 1000, 64, 7, 100, 900, false},
		{"block-aligned-batch", 512, 500, 64, 64, 0, 500, false},
		{"active-only", 1000, 1000, 64, 13, 100, 900, true},
		{"empty-range", 300, 100, 32, 8, 100, 100, false},
		{"everything", 300, 100, 32, 8, 0, 100, true},
		{"tiny-batch", 257, 50, 16, 1, 10, 40, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, active := buildColumn(t, tc.n, tc.domain, tc.blockSize, 7)
			var act *bitvec.Vector
			var want []int32
			if tc.useActive {
				act = active
				want = c.ScanRangeActive(tc.lo, tc.hi, active, nil)
			} else {
				want = c.ScanRange(tc.lo, tc.hi, nil)
			}

			sel := make([]int32, tc.batchSize)
			val := make([]int64, tc.batchSize)
			var gotSel []int32
			var gotVal []int64
			for pos := 0; pos < c.Len(); {
				var n int
				n, pos = c.ScanBatchRange(tc.lo, tc.hi, act, pos, c.Len(), sel, val)
				gotSel = append(gotSel, sel[:n]...)
				gotVal = append(gotVal, val[:n]...)
			}

			if len(gotSel) != len(want) {
				t.Fatalf("got %d rows, want %d", len(gotSel), len(want))
			}
			for i := range want {
				if gotSel[i] != want[i] {
					t.Fatalf("row %d: got position %d, want %d", i, gotSel[i], want[i])
				}
				if gotVal[i] != c.Get(int(want[i])) {
					t.Fatalf("row %d: got value %d, want %d", i, gotVal[i], c.Get(int(want[i])))
				}
			}
		})
	}
}

// TestScanBatchResume checks that next always lands on the position after
// the last produced row (or a block boundary for pruned blocks), so
// resuming never skips or duplicates.
func TestScanBatchResume(t *testing.T) {
	c := NewWithBlockSize(8)
	for i := 0; i < 40; i++ {
		c.Append(int64(i % 10))
	}
	sel := make([]int32, 3)
	val := make([]int64, 3)
	seen := map[int32]bool{}
	for pos := 0; pos < c.Len(); {
		var n int
		n, pos = c.ScanBatchRange(2, 8, nil, pos, c.Len(), sel, val)
		for _, r := range sel[:n] {
			if seen[r] {
				t.Fatalf("position %d produced twice", r)
			}
			seen[r] = true
		}
	}
	want := c.ScanRange(2, 8, nil)
	if len(seen) != len(want) {
		t.Fatalf("resumed scan produced %d rows, want %d", len(seen), len(want))
	}
}

// TestScanBatchZoneSkip verifies the kernel skips non-intersecting blocks
// without touching their rows: a batch bigger than the matching set must
// be filled in one call that jumped over the cold block.
func TestScanBatchZoneSkip(t *testing.T) {
	c := NewWithBlockSize(4)
	for _, v := range []int64{1, 2, 1, 2, 100, 100, 100, 100, 3, 1, 2, 3} {
		c.Append(v)
	}
	sel := make([]int32, 16)
	val := make([]int64, 16)
	n, next := c.ScanBatchRange(0, 10, nil, 0, c.Len(), sel, val)
	if next != c.Len() {
		t.Fatalf("next = %d, want %d", next, c.Len())
	}
	if n != 8 {
		t.Fatalf("matched %d rows, want 8", n)
	}
}

func TestScanBatchBufferMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched buffers")
		}
	}()
	c := New()
	c.Append(1)
	c.ScanBatchRange(0, 10, nil, 0, c.Len(), make([]int32, 4), make([]int64, 8))
}

func TestGather(t *testing.T) {
	c := New()
	for i := 0; i < 100; i++ {
		c.Append(int64(i * 3))
	}
	rows := []int32{0, 7, 99, 42}
	got := c.Gather(rows, nil)
	for i, r := range rows {
		if got[i] != int64(r)*3 {
			t.Fatalf("gather[%d] = %d, want %d", i, got[i], int64(r)*3)
		}
	}
	// Buffer reuse: a capacious buffer must be reused, not reallocated.
	buf := make([]int64, 0, 8)
	got = c.Gather(rows, buf)
	if &got[0] != &buf[:1][0] {
		t.Fatal("gather did not reuse the provided buffer")
	}
	// Out-of-range positions panic.
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range gather")
		}
	}()
	c.Gather([]int32{1000}, nil)
}

// TestScanBatchRangePartition splits the row space into arbitrary
// disjoint ranges — morsel-style — and checks that per-range scans
// concatenate to exactly the full-column scan, for both active modes.
// This is the property the parallel engine's deterministic merge rests
// on.
func TestScanBatchRangePartition(t *testing.T) {
	c, active := buildColumn(t, 1000, 1000, 64, 11)
	for _, act := range []*bitvec.Vector{nil, active} {
		want := c.ScanRange(100, 900, nil)
		if act != nil {
			want = c.ScanRangeActive(100, 900, act, nil)
		}
		for _, cuts := range [][]int{
			{0, 1000},
			{0, 64, 128, 1000},       // block-aligned morsels
			{0, 100, 321, 700, 1000}, // unaligned, crossing words and blocks
			{0, 1, 2, 3, 1000},
		} {
			sel := make([]int32, 13)
			val := make([]int64, 13)
			var got []int32
			for i := 0; i+1 < len(cuts); i++ {
				for pos := cuts[i]; pos < cuts[i+1]; {
					var n int
					n, pos = c.ScanBatchRange(100, 900, act, pos, cuts[i+1], sel, val)
					got = append(got, sel[:n]...)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("cuts %v active=%v: got %d rows, want %d", cuts, act != nil, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("cuts %v active=%v: row %d: got %d, want %d", cuts, act != nil, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCountRangeInPartition checks the counting kernel against
// CountRange over the same arbitrary row splits.
func TestCountRangeInPartition(t *testing.T) {
	c, active := buildColumn(t, 1000, 1000, 64, 13)
	for _, act := range []*bitvec.Vector{nil, active} {
		want := c.CountRangeIn(200, 800, act, 0, c.Len())
		for _, cuts := range [][]int{{0, 1000}, {0, 64, 500, 1000}, {0, 7, 77, 777, 1000}} {
			got := 0
			for i := 0; i+1 < len(cuts); i++ {
				got += c.CountRangeIn(200, 800, act, cuts[i], cuts[i+1])
			}
			if got != want {
				t.Fatalf("cuts %v active=%v: counted %d, want %d", cuts, act != nil, got, want)
			}
		}
	}
}
