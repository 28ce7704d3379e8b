package engine

import (
	"context"
	"testing"

	"amnesiadb/internal/expr"
	"amnesiadb/internal/table"
)

// strideTable builds an n-row single-column table for cursor tests.
func strideTable(t *testing.T, n int) *table.Table {
	t.Helper()
	tb := table.New("s", "a")
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	if _, err := tb.AppendSingleColumn(vals); err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestStrideHintSeedsCursor pins the warm-start: a recorded effective
// stride seeds the next scan's adaptive cursor, while out-of-range
// hints (below the base stride or above the cap) are ignored.
func TestStrideHintSeedsCursor(t *testing.T) {
	tb := strideTable(t, 10*MorselBlocks*128)
	ex := NewSilent(tb)
	c := tb.MustColumn("a")
	if cur, _, _ := ex.newMorsels(c, expr.True{}); cur.stride != MorselBlocks {
		t.Fatalf("fresh cursor stride = %d, want base %d", cur.stride, MorselBlocks)
	}
	tb.RecordScanStride(4 * MorselBlocks)
	if cur, _, _ := ex.newMorsels(c, expr.True{}); cur.stride != 4*MorselBlocks {
		t.Fatalf("seeded stride = %d, want %d", cur.stride, 4*MorselBlocks)
	}
	tb.RecordScanStride(2 * MaxMorselBlocks) // bogus: above the cap
	if cur, _, _ := ex.newMorsels(c, expr.True{}); cur.stride != MorselBlocks {
		t.Fatalf("over-cap hint used: stride = %d", cur.stride)
	}
	tb.RecordScanStride(1) // bogus: below the base
	if cur, _, _ := ex.newMorsels(c, expr.True{}); cur.stride != MorselBlocks {
		t.Fatalf("under-base hint used: stride = %d", cur.stride)
	}
}

// TestScanRecordsStrideHint pins the feedback edge: draining a
// streaming scan (and collecting a materialized one) stores the
// effective stride on the table for the next query to start from.
func TestScanRecordsStrideHint(t *testing.T) {
	tb := strideTable(t, 4*MorselBlocks*128)
	if got := tb.ScanStrideHint(); got != 0 {
		t.Fatalf("fresh table has stride hint %d", got)
	}
	ex := NewSilent(tb)
	st, err := ex.SelectChunkStream(context.Background(), "a", expr.True{}, ScanActive)
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, ok, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if got := tb.ScanStrideHint(); got < MorselBlocks {
		t.Fatalf("streamed scan recorded stride %d, want >= %d", got, MorselBlocks)
	}
	tb.RecordScanStride(0) // RecordScanStride ignores zero...
	if got := tb.ScanStrideHint(); got < MorselBlocks {
		t.Fatal("zero record clobbered the hint")
	}
	if _, err := ex.Select("a", expr.True{}, ScanActive); err != nil {
		t.Fatal(err)
	}
	if got := tb.ScanStrideHint(); got < MorselBlocks {
		t.Fatalf("materialized scan recorded stride %d, want >= %d", got, MorselBlocks)
	}
}
