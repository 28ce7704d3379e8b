package amnesiadb_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"amnesiadb"
	"amnesiadb/internal/durability/failpoint"
	"amnesiadb/internal/engine/governor"
)

// handles are the relation handles every handleOp runs against: a flat
// table, an advisor over it, and a partitioned table.
type handles struct {
	tb  *amnesiadb.Table
	adv *amnesiadb.Advisor
	pt  *amnesiadb.PartitionedTable
}

// handleOps is every exported handle method that takes a relation's
// exclusive lock, for both kinds. logged marks the WAL-logged mutators.
// Methods of *Table go by their bare name, the others by Type.Method.
var handleOps = []struct {
	name   string
	logged bool
	run    func(h handles) error
}{
	{"SetPolicy", true, func(h handles) error { return h.tb.SetPolicy(amnesiadb.Policy{Strategy: "uniform", Budget: 4}) }},
	{"Insert", true, func(h handles) error { return h.tb.Insert(map[string][]int64{"v": {99}}) }},
	{"InsertColumn", true, func(h handles) error { return h.tb.InsertColumn("v", []int64{99}) }},
	{"EnforceBudget", true, func(h handles) error { return h.tb.EnforceBudget() }},
	{"Vacuum", true, func(h handles) error { return h.tb.Vacuum() }},
	{"RecoverRange", true, func(h handles) error { _, _, err := h.tb.RecoverRange("v", 0, 100); return err }},
	{"DemoteForgotten", false, func(h handles) error { _, err := h.tb.DemoteForgotten(); return err }},
	{"Summarize", false, func(h handles) error { _, err := h.tb.Summarize("v"); return err }},
	{"NewAdvisor", false, func(h handles) error { _, err := h.tb.NewAdvisor("v"); return err }},
	{"Advisor.Select", false, func(h handles) error { _, err := h.adv.Select(amnesiadb.Range(0, 10)); return err }},
	{"Advisor.Aggregate", false, func(h handles) error { _, err := h.adv.Aggregate(amnesiadb.Range(0, 10)); return err }},
	{"Advisor.Advise", false, func(h handles) error { _, err := h.adv.Advise(0.5); return err }},
	{"PartitionedTable.Insert", true, func(h handles) error { return h.pt.Insert([]int64{5}) }},
	{"PartitionedTable.Adapt", true, func(h handles) error { return h.pt.Adapt() }},
}

// handleReaders is every other exported handle method: each takes at
// most the relation's read lock, so it mutates nothing a dropped handle
// or a degraded database must refuse. TestHandleContract/exhaustive
// fails on a method in neither list.
var handleReaders = []string{
	"ActivePerBatch", "Aggregate", "ApproxAvg", "ColdBill", "Columns",
	"ForgottenQuantile", "GroupBy", "Name", "Policy", "Precision",
	"Select", "SelectWithForgotten", "Stats",
	"PartitionedTable.Column", "PartitionedTable.Name", "PartitionedTable.Partitions",
	"PartitionedTable.Precision", "PartitionedTable.Select", "PartitionedTable.Stats",
}

// openHandles opens a durable database under dir with one relation of
// each kind, some data in both, and an advisor on the flat table.
func openHandles(t *testing.T, dir string) (*amnesiadb.DB, handles) {
	t.Helper()
	db, err := amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 12, Fsync: "always"})
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	var h handles
	if h.tb, err = db.CreateTable("flat", "v"); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if err := h.tb.InsertColumn("v", []int64{1, 2, 3}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if h.adv, err = h.tb.NewAdvisor("v"); err != nil {
		t.Fatalf("NewAdvisor: %v", err)
	}
	if h.pt, err = db.CreatePartitionedTable("parted", "m", 100, 2, "uniform", 50); err != nil {
		t.Fatalf("CreatePartitionedTable: %v", err)
	}
	if err := h.pt.Insert([]int64{3, 40, 80}); err != nil {
		t.Fatalf("part insert: %v", err)
	}
	return db, h
}

// walBytes is the size of the live (newest) WAL segment.
func walBytes(t *testing.T, dir string) int64 {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	st, err := os.Stat(segs[len(segs)-1])
	if err != nil {
		t.Fatalf("stat segment: %v", err)
	}
	return st.Size()
}

// TestHandleContract pins the two refusals every handle method owes,
// and that no exported handle method escapes them unlisted:
//
//   - every exported method of *Table, *PartitionedTable and *Advisor
//     is in handleOps or handleReaders, so a new mutator cannot skip
//     the two checks below by being forgotten;
//   - a handle that outlived its relation's DropTable fails with
//     ErrUnknownTable and logs nothing, or replay would meet a mutation
//     record after the drop record and refuse to reopen the database;
//   - on a degraded database every logged mutator, and all DDL, fails
//     with ErrReadOnly while reads keep answering.
func TestHandleContract(t *testing.T) {
	t.Run("exhaustive", func(t *testing.T) {
		listed := map[string]bool{}
		for _, op := range handleOps {
			listed[op.name] = true
		}
		for _, name := range handleReaders {
			listed[name] = true
		}
		for _, typ := range []struct {
			prefix string
			v      any
		}{{"", (*amnesiadb.Table)(nil)}, {"PartitionedTable.", (*amnesiadb.PartitionedTable)(nil)}, {"Advisor.", (*amnesiadb.Advisor)(nil)}} {
			rt := reflect.TypeOf(typ.v)
			for i := 0; i < rt.NumMethod(); i++ {
				name := typ.prefix + rt.Method(i).Name
				if !listed[name] {
					t.Errorf("%s is in neither handleOps (takes the exclusive lock) nor handleReaders", name)
				}
				delete(listed, name)
			}
		}
		for name := range listed {
			t.Errorf("%s is listed but is no exported handle method", name)
		}
	})

	t.Run("dropped", func(t *testing.T) {
		dir := t.TempDir()
		db, h := openHandles(t, dir)
		for _, name := range []string{"flat", "parted"} {
			if err := db.DropTable(name); err != nil {
				t.Fatalf("drop %s: %v", name, err)
			}
		}
		for _, op := range handleOps {
			before := walBytes(t, dir)
			if err := op.run(h); !errors.Is(err, amnesiadb.ErrUnknownTable) {
				t.Errorf("%s on a dropped handle: err = %v, want ErrUnknownTable", op.name, err)
			}
			if after := walBytes(t, dir); after != before {
				t.Errorf("%s on a dropped handle grew the WAL %d -> %d bytes", op.name, before, after)
			}
		}
		db.Close()
		re, err := amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 12, Fsync: "always"})
		if err != nil {
			t.Fatalf("reopen after drops: %v", err)
		}
		defer re.Close()
		if rels := re.Relations(); len(rels) != 0 {
			t.Fatalf("dropped relations resurrected: %v", rels)
		}
	})

	t.Run("degraded", func(t *testing.T) {
		dir := t.TempDir()
		db, h := openHandles(t, dir)
		defer db.Close()
		// Block the healing probe so degradation stays latched.
		failpoint.Enable(governor.FailpointProbe, failpoint.Error(failpoint.ErrInjected))
		failpoint.Enable("wal.fsync", failpoint.Error(failpoint.ErrInjected))
		defer failpoint.DisableAll()
		if err := h.tb.InsertColumn("v", []int64{4}); !errors.Is(err, amnesiadb.ErrReadOnly) {
			t.Fatalf("insert during fsync failure: got %v, want ErrReadOnly", err)
		}
		failpoint.Disable("wal.fsync")

		for _, op := range handleOps {
			if !op.logged {
				continue
			}
			if err := op.run(h); !errors.Is(err, amnesiadb.ErrReadOnly) {
				t.Errorf("degraded %s: err = %v, want ErrReadOnly", op.name, err)
			}
		}
		ddl := map[string]func() error{
			"CreateTable": func() error { _, err := db.CreateTable("t2", "v"); return err },
			"CreatePartitionedTable": func() error {
				_, err := db.CreatePartitionedTable("p2", "m", 100, 2, "uniform", 50)
				return err
			},
			"DropTable": func() error { return db.DropTable("flat") },
		}
		for name, run := range ddl {
			if err := run(); !errors.Is(err, amnesiadb.ErrReadOnly) {
				t.Errorf("degraded %s: err = %v, want ErrReadOnly", name, err)
			}
		}

		if _, err := db.Query("SELECT COUNT(*) FROM flat"); err != nil {
			t.Errorf("degraded Query: %v", err)
		}
		if st := h.tb.Stats(); st.Tuples < 3 {
			t.Errorf("degraded Stats = %+v, want at least the 3 acked tuples", st)
		}
		if _, _, _, err := h.tb.Precision(t.Context(), "v", amnesiadb.All()); err != nil {
			t.Errorf("degraded Precision: %v", err)
		}
		if _, _, _, err := h.pt.Precision(t.Context(), 0, 100); err != nil {
			t.Errorf("degraded partitioned Precision: %v", err)
		}
	})
}

// TestNamespaceSpansBothKinds pins the one-namespace rule: a name held
// by either kind is refused by CreateTable and CreatePartitionedTable
// alike, and once dropped it can come back as the other kind
// — durably.
func TestNamespaceSpansBothKinds(t *testing.T) {
	dir := t.TempDir()
	opts := amnesiadb.Options{Seed: 5, Fsync: "always"}
	db, err := amnesiadb.OpenDir(dir, opts)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	tb, err := db.CreateTable("flat", "v")
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if err := tb.InsertColumn("v", []int64{1, 2, 3}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if _, err := db.CreatePartitionedTable("part", "m", 100, 2, "uniform", 50); err != nil {
		t.Fatalf("CreatePartitionedTable: %v", err)
	}
	for _, name := range []string{"flat", "part"} {
		if _, err := db.CreateTable(name, "v"); err == nil {
			t.Errorf("CreateTable(%q) over an existing relation succeeded", name)
		}
		if _, err := db.CreatePartitionedTable(name, "m", 100, 2, "uniform", 50); err == nil {
			t.Errorf("CreatePartitionedTable(%q) over an existing relation succeeded", name)
		}
	}
	if _, ok := db.Table("flat"); !ok {
		t.Fatal("flat table lost its kind")
	}
	if _, ok := db.Partitioned("part"); !ok {
		t.Fatal("partitioned table lost its kind")
	}

	for _, name := range []string{"flat", "part"} {
		if err := db.DropTable(name); err != nil {
			t.Fatalf("drop %s: %v", name, err)
		}
	}
	pt, err := db.CreatePartitionedTable("flat", "m", 100, 2, "uniform", 50)
	if err != nil {
		t.Fatalf("recreate flat as partitioned: %v", err)
	}
	if err := pt.Insert([]int64{7, 70}); err != nil {
		t.Fatalf("part insert: %v", err)
	}
	nt, err := db.CreateTable("part", "v")
	if err != nil {
		t.Fatalf("recreate part as flat: %v", err)
	}
	if err := nt.InsertColumn("v", []int64{4, 5}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	want := db.Relations()
	db.Close()

	re, err := amnesiadb.OpenDir(dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	got := re.Relations()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] || got[0].Kind != "partitioned" || got[1].Kind != "table" {
		t.Fatalf("relations after reopen = %v, want %v", got, want)
	}
	for q, wantSum := range map[string]float64{"SELECT SUM(m) FROM flat": 77, "SELECT SUM(v) FROM part": 9} {
		res, err := re.Query(q)
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != wantSum {
			t.Errorf("%s after reopen = %v, %v; want %v", q, res, err, wantSum)
		}
	}
}
