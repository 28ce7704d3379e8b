package amnesiadb_test

import (
	"bytes"
	"hash/crc64"
	"os"
	"path/filepath"
	"testing"

	"amnesiadb"
)

// pinnedWALCRC is the CRC-64 of the segment bytes walWorkload leaves,
// recorded before the insert record was encoded outside the relation
// lock and before the weighted strategies returned their victims in
// position order: both change when and in what order work is done,
// never a byte of the log. Not a CRC-32: every record ends in the
// CRC-32 of its own bytes, and a CRC-32 run over such a record ends in
// the same state whatever the record holds, so a CRC-32 of the segment
// sees only the records' lengths.
const pinnedWALCRC = 0x06fc2a44d2b63931

// walWorkload drives one writer through every path that logs an
// enforcement's positions: flat tables under rot (two columns, touched
// by reads, vacuumed halfway), under decay with a retention window, and
// under uniform, whose positions the facade still sorts, and a
// partitioned table with an Adapt. Each partitioned batch falls in one
// shard; TestWALBytesMultiShardReproducible covers batches that span
// shards.
func walWorkload(t *testing.T, db *amnesiadb.DB) {
	t.Helper()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	type flat struct {
		name string
		cols []string
		p    amnesiadb.Policy
	}
	flats := []flat{
		{"r", []string{"k", "v"}, amnesiadb.Policy{Strategy: "rot", Budget: 300}},
		{"d", []string{"v"}, amnesiadb.Policy{Strategy: "decay", Budget: 300, MaxAgeBatches: 6}},
		{"u", []string{"v"}, amnesiadb.Policy{Strategy: "uniform", Budget: 200}},
	}
	tables := make([]*amnesiadb.Table, len(flats))
	for i, f := range flats {
		tb, err := db.CreateTable(f.name, f.cols...)
		check(err)
		check(tb.SetPolicy(f.p))
		tables[i] = tb
	}
	pt, err := db.CreatePartitionedTable("p", "v", 100000, 4, "rot", 400)
	check(err)
	for b := 0; b < 24; b++ {
		n := 97 + b%3*40
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64((b*7919 + i*104729) % 100000)
		}
		for i, f := range flats {
			cols := map[string][]int64{}
			for j, c := range f.cols {
				cols[c] = vals
				if j > 0 {
					cols[c] = append([]int64(nil), vals[n/2:]...)
					cols[c] = append(cols[c], vals[:n/2]...)
				}
			}
			check(tables[i].Insert(cols))
			_, err := db.Query("SELECT v FROM " + f.name + " WHERE v < 20000")
			check(err)
		}
		shard := make([]int64, n)
		for i := range shard {
			shard[i] = int64(b%4*25000 + (b*7919+i*104729)%25000)
		}
		check(pt.Insert(shard))
		_, err := pt.Select(10000, 30000)
		check(err)
		if b == 11 {
			check(tables[0].Vacuum())
			check(pt.Adapt())
		}
	}
}

// TestWALBytesPinned holds a seeded single-writer durable run's log to
// pinnedWALCRC.
func TestWALBytesPinned(t *testing.T) {
	dir := t.TempDir()
	db, err := amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 5, Fsync: "off", SegmentBytes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	walWorkload(t, db)
	db.Close()
	if got := crc64.Checksum(segmentBytes(t, dir), crc64.MakeTable(crc64.ECMA)); got != pinnedWALCRC {
		t.Fatalf("segment CRC %#016x, pinned %#016x", got, pinnedWALCRC)
	}
}

// segmentBytes returns the concatenated WAL segments of a closed
// durable database's directory.
func segmentBytes(t *testing.T, dir string) []byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments %v: %v", segs, err)
	}
	var all []byte
	for _, s := range segs {
		b, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	return all
}

// TestWALBytesMultiShardReproducible: two identically seeded durable
// runs whose partitioned batches each span every shard write the same
// log bytes, because a batch's shards are logged in ascending order.
func TestWALBytesMultiShardReproducible(t *testing.T) {
	run := func() []byte {
		dir := t.TempDir()
		db, err := amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 9, Fsync: "off", SegmentBytes: 1 << 40})
		if err != nil {
			t.Fatal(err)
		}
		pt, err := db.CreatePartitionedTable("p", "v", 100000, 8, "rot", 800)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 16; b++ {
			vals := make([]int64, 120+b)
			for i := range vals {
				vals[i] = int64((b*7919 + i*104729) % 100000)
			}
			if err := pt.Insert(vals); err != nil {
				t.Fatal(err)
			}
			if _, err := pt.Select(int64(b*5000), int64(b*5000+30000)); err != nil {
				t.Fatal(err)
			}
		}
		db.Close()
		return segmentBytes(t, dir)
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		n := 0
		for n < min(len(a), len(b)) && a[n] == b[n] {
			n++
		}
		t.Fatalf("two seeded runs wrote different logs (%d and %d bytes, first difference at byte %d)", len(a), len(b), n)
	}
}

// TestMalformedDurableInsertLogsNothing: a batch the table rejects
// fails with the table's own error, whether or not its record was
// encoded before the lock, and the log does not grow.
func TestMalformedDurableInsertLogsNothing(t *testing.T) {
	dir := t.TempDir()
	db, err := amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 5, Fsync: "always", SegmentBytes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tb, err := db.CreateTable("m", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.SetPolicy(amnesiadb.Policy{Strategy: "rot", Budget: 4}); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v: %v", segs, err)
	}
	size := func() int64 {
		st, err := os.Stat(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	before := size()
	for _, c := range []struct {
		cols map[string][]int64
		want string
	}{
		{map[string][]int64{"a": {1, 2}}, "table m: batch has 1 columns, schema has 2"},
		{map[string][]int64{"a": {1, 2}, "c": {3, 4}}, `table m: batch missing column "b"`},
		{map[string][]int64{"a": {1, 2}, "b": {3}}, `table m: ragged batch: column "b" has 1 values, want 2`},
		{map[string][]int64{"a": {1, 2}, "b": {3, 4}, "c": {5, 6}}, "table m: batch has 3 columns, schema has 2"},
	} {
		err := tb.Insert(c.cols)
		if err == nil || err.Error() != c.want {
			t.Errorf("Insert(%v) = %v, want %q", c.cols, err, c.want)
		}
		if got := size(); got != before {
			t.Errorf("Insert(%v) grew the log from %d to %d bytes", c.cols, before, got)
		}
	}
	if err := tb.Insert(map[string][]int64{"a": {1, 2, 3, 4, 5}, "b": {6, 7, 8, 9, 10}}); err != nil {
		t.Fatal(err)
	}
	if size() == before {
		t.Fatal("a valid insert logged nothing")
	}
}
