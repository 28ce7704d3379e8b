package amnesiadb

import (
	"hash/crc64"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"
)

// pinnedSnapshotCRC is the CRC-64 of the snapshot file
// snapshotCatalog's catalog writes. Snapshots on disk must stay
// readable, so a change that moves one byte of it must bump a format
// version instead of re-pinning.
const pinnedSnapshotCRC uint64 = 0x96f72e369401c06e

// snapshotCatalog fills db with everything a snapshot has to carry:
// two flat tables of two columns under policies, one vacuumed so that
// the batches it emptied are still counted, rows touched by queries,
// and a partitioned table adapted once.
func snapshotCatalog(t *testing.T, db *DB) {
	t.Helper()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	r, err := db.CreateTable("r", "k", "v")
	check(err)
	check(r.SetPolicy(Policy{Strategy: "rot", Budget: 300}))
	d, err := db.CreateTable("d", "k", "v")
	check(err)
	check(d.SetPolicy(Policy{Strategy: "decay", Budget: 200, MaxAgeBatches: 6}))
	pt, err := db.CreatePartitionedTable("p", "v", 100000, 4, "rot", 400)
	check(err)
	for b := 0; b < 16; b++ {
		n := 97 + b%3*40
		k, v := make([]int64, n), make([]int64, n)
		for i := range k {
			k[i] = int64(b*1000 + i)
			v[i] = int64((b*7919 + i*104729) % 100000)
		}
		check(r.Insert(map[string][]int64{"k": k, "v": v}))
		check(d.Insert(map[string][]int64{"k": k, "v": v}))
		_, err := db.Query("SELECT v FROM r WHERE v < 20000")
		check(err)
		_, err = db.Query("SELECT k FROM d WHERE k >= 9000")
		check(err)
		check(pt.Insert(v))
		_, err = pt.Select(10000, 30000)
		check(err)
		if b == 7 {
			check(r.Vacuum())
			check(pt.Adapt())
		}
	}
}

// snapshotFile returns the newest snapshot in dir.
func snapshotFile(t *testing.T, dir string) string {
	t.Helper()
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.db"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("snapshots %v: %v", snaps, err)
	}
	return slices.Max(snaps)
}

// TestSnapshotBytesPinned holds the snapshot of a seeded durable
// catalog to pinnedSnapshotCRC.
func TestSnapshotBytesPinned(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir, Options{Seed: 5, Fsync: "off"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	snapshotCatalog(t, db)
	if err := db.Snapshot(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(snapshotFile(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := crc64.Checksum(b, crc64.MakeTable(crc64.ECMA)); got != pinnedSnapshotCRC {
		t.Fatalf("snapshot CRC %#016x, pinned %#016x", got, pinnedSnapshotCRC)
	}
}

// catalogState is everything a snapshot restores, relation by
// relation: each flat table's state and policy, and each partitioned
// table's layout and shard states.
func catalogState(db *DB) map[string]any {
	out := map[string]any{}
	for name, r := range db.rels {
		switch r := r.(type) {
		case *Table:
			out[name] = []any{r.tbl.State(), r.Policy()}
		case *PartitionedTable:
			shards := []any{r.set.Column(), r.set.Strategy(), r.set.Domain()}
			for _, p := range r.set.Partitions() {
				shards = append(shards, p.Lo, p.Hi, p.Budget(), p.Table().State())
			}
			out[name] = shards
		}
	}
	return out
}

// TestSnapshotRestoreEquivalent: OpenDir → Snapshot → Close → OpenDir
// brings back every flat and partitioned table exactly — values,
// active bits, batch ids, the batch count including batches Vacuum
// emptied, access counts, policies, shard ranges and budgets — and the
// restored catalog answers queries as the original did.
func TestSnapshotRestoreEquivalent(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Seed: 5, Fsync: "off"}
	db, err := OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	snapshotCatalog(t, db)
	if err := db.Snapshot(); err != nil {
		t.Fatal(err)
	}
	want := catalogState(db)
	r, _ := db.Table("r")
	if active, total := r.ActivePerBatch(); !slices.Contains(total, 0) || slices.Max(r.tbl.State().Access) == 0 {
		t.Fatalf("workload left no emptied batch (%v of %v) or no touched row", active, total)
	}
	const q = "SELECT k, v FROM r WHERE v >= 0 ORDER BY v DESC LIMIT 50"
	wantRows, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()

	re, err := OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := catalogState(re); !reflect.DeepEqual(got, want) {
		for name := range want {
			if !reflect.DeepEqual(got[name], want[name]) {
				t.Errorf("%s restored as %+v\nwant %+v", name, got[name], want[name])
			}
		}
		t.FailNow()
	}
	gotRows, err := re.Query(q)
	if err != nil || !reflect.DeepEqual(gotRows.Rows, wantRows.Rows) {
		t.Fatalf("restored %s = %v, %v; want %v", q, gotRows, err, wantRows.Rows)
	}
}

// TestSnapshotRestoresHotRow: a row touched up to the uint32 ceiling
// restores exactly, and in time independent of its count — replaying
// one touch per recorded access would take minutes.
func TestSnapshotRestoresHotRow(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Seed: 5, Fsync: "off"}
	db, err := OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("hot", "v")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.InsertColumn("v", []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	tb.tbl.TouchRange(1, 2, func(c []uint32) { c[0] = ^uint32(0) })
	if err := db.Snapshot(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	start := time.Now()
	re, err := OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("restoring one hot row took %v", took)
	}
	back, _ := re.Table("hot")
	for i, want := range []uint32{0, ^uint32(0), 0} {
		if got := back.tbl.AccessCount(i); got != want {
			t.Fatalf("row %d restored with access count %d, want %d", i, got, want)
		}
	}
}
