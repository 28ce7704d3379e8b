package snapshot

import (
	"bytes"
	"testing"

	"amnesiadb/internal/table"
	"amnesiadb/internal/xrand"
)

func buildTable(t *testing.T) *table.Table {
	t.Helper()
	src := xrand.New(1)
	tb := table.New("events", "ts", "val")
	for b := 0; b < 5; b++ {
		n := 100 + b*10
		ts := make([]int64, n)
		val := make([]int64, n)
		for i := range ts {
			ts[i] = int64(b*1000 + i)
			val[i] = src.Int63n(10000)
		}
		if _, err := tb.AppendBatch(map[string][]int64{"ts": ts, "val": val}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < tb.Len(); i += 3 {
		tb.Forget(i)
	}
	for i := 0; i < 50; i++ {
		tb.Touch(i)
		tb.Touch(i)
	}
	return tb
}

func roundTrip(t *testing.T, tb *table.Table) *table.Table {
	t.Helper()
	var buf bytes.Buffer
	if err := writeTable(&buf, tb.State()); err != nil {
		t.Fatal(err)
	}
	back, err := readTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestRoundTripPreservesEverything(t *testing.T) {
	tb := buildTable(t)
	back := roundTrip(t, tb)

	if back.Name() != tb.Name() {
		t.Fatalf("name = %q", back.Name())
	}
	if back.Len() != tb.Len() || back.Batches() != tb.Batches() {
		t.Fatalf("len=%d batches=%d, want %d/%d", back.Len(), back.Batches(), tb.Len(), tb.Batches())
	}
	cols := tb.Columns()
	bcols := back.Columns()
	if len(cols) != len(bcols) {
		t.Fatalf("columns = %v", bcols)
	}
	for ci, cn := range cols {
		if bcols[ci] != cn {
			t.Fatalf("column %d = %q, want %q", ci, bcols[ci], cn)
		}
		a, b := tb.MustColumn(cn), back.MustColumn(cn)
		for i := 0; i < tb.Len(); i++ {
			if a.Get(i) != b.Get(i) {
				t.Fatalf("column %s row %d: %d vs %d", cn, i, b.Get(i), a.Get(i))
			}
		}
	}
	for i := 0; i < tb.Len(); i++ {
		if tb.IsActive(i) != back.IsActive(i) {
			t.Fatalf("active bit %d differs", i)
		}
		if tb.InsertBatch(i) != back.InsertBatch(i) {
			t.Fatalf("insert batch %d differs", i)
		}
		if tb.AccessCount(i) != back.AccessCount(i) {
			t.Fatalf("access count %d: %d vs %d", i, back.AccessCount(i), tb.AccessCount(i))
		}
	}
}

func TestRoundTripEmptyBatch(t *testing.T) {
	// A zero-tuple batch still advances the batch counter; the snapshot
	// must replay it so later insert-batch ids line up.
	tb := table.New("t", "a")
	if _, err := tb.AppendSingleColumn(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AppendSingleColumn([]int64{7}); err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, tb)
	if back.Batches() != 2 {
		t.Fatalf("batches = %d, want 2", back.Batches())
	}
	if back.InsertBatch(0) != 1 {
		t.Fatalf("insert batch = %d, want 1", back.InsertBatch(0))
	}
}

func TestRoundTripEmptyTable(t *testing.T) {
	tb := table.New("empty", "a")
	back := roundTrip(t, tb)
	if back.Len() != 0 || back.Name() != "empty" {
		t.Fatalf("empty round trip: len=%d name=%q", back.Len(), back.Name())
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := readTable(bytes.NewReader([]byte("not a snapshot at all........"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := readTable(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	tb := buildTable(t)
	var buf bytes.Buffer
	if err := writeTable(&buf, tb.State()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{1, len(full) / 2, len(full) - 1} {
		if _, err := readTable(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestReadRejectsWrongVersion(t *testing.T) {
	tb := table.New("t", "a")
	var buf bytes.Buffer
	if err := writeTable(&buf, tb.State()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[8] = 99 // version field
	if _, err := readTable(bytes.NewReader(b)); err == nil {
		t.Fatal("wrong version accepted")
	}
}

func TestSnapshotIsCompact(t *testing.T) {
	// Serial + bounded-random data must land well below 16 bytes/tuple
	// thanks to the Auto codec.
	tb := buildTable(t)
	var buf bytes.Buffer
	if err := writeTable(&buf, tb.State()); err != nil {
		t.Fatal(err)
	}
	raw := tb.Len() * 16
	if buf.Len() >= raw {
		t.Fatalf("snapshot %d bytes for %d bytes of raw data", buf.Len(), raw)
	}
}
