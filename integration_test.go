// Integration tests exercising flows that cross module boundaries: index
// consistency under amnesia churn, the four fates of forgotten data
// working together on one table, and SQL over an amnesiac store.
package amnesiadb_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"amnesiadb"
	"amnesiadb/internal/amnesia"
	"amnesiadb/internal/engine"
	"amnesiadb/internal/expr"
	"amnesiadb/internal/table"
	"amnesiadb/internal/xrand"
)

// TestIndexConsistencyUnderChurn runs narrow selects — the ones the
// engine answers from a column's value-order index — across rounds of
// appends, uniform forgetting and vacuums, and checks every answer
// against the raw row-at-a-time scan: forgotten tuples filtered out of
// the index at lookup, appended ones found in its tail or folded in,
// vacuumed ones remapped out of it.
func TestIndexConsistencyUnderChurn(t *testing.T) {
	const budget, domain = engine.TaskMinRows, 1 << 20
	src := xrand.New(3)
	tb := table.New("t", "a")
	strat := amnesia.NewUniform(src.Split())
	ex := engine.New(tb)
	for round := 0; round < 8; round++ {
		vals := make([]int64, budget/3)
		if round == 0 {
			vals = make([]int64, budget)
		}
		for i := range vals {
			vals[i] = src.Int63n(domain)
		}
		if _, err := tb.AppendSingleColumn(vals); err != nil {
			t.Fatal(err)
		}
		if over := tb.ActiveCount() - budget; over > 0 {
			strat.Forget(tb, over)
		}
		if round%3 == 2 {
			tb.Vacuum()
		}
		for q := 0; q < 20; q++ {
			lo := src.Int63n(domain)
			hi := lo + src.Int63n(4000)
			res, err := ex.Select("a", expr.NewRange(lo, hi), engine.ScanActive)
			if err != nil {
				t.Fatal(err)
			}
			want := tb.MustColumn("a").ScanRangeActive(lo, hi, tb.Active(), nil)
			if !slices.Equal(res.Rows, want) {
				t.Fatalf("round %d [%d,%d): index path returned %d rows, raw scan %d", round, lo, hi, len(res.Rows), len(want))
			}
			for i, r := range want {
				if res.Values[i] != tb.MustColumn("a").Get(int(r)) {
					t.Fatalf("round %d: row %d carries value %d", round, r, res.Values[i])
				}
			}
		}
		if tb.Stats().IndexBytes == 0 {
			t.Fatalf("round %d: narrow selects over %d rows built no index", round, tb.Len())
		}
	}
}

// TestFourFatesCompose runs mark → summarise → demote → vacuum on one
// table and checks each fate's artefact stays coherent.
func TestFourFatesCompose(t *testing.T) {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 11})
	tb, err := db.CreateTable("t", "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.SetPolicy(amnesiadb.Policy{Strategy: "fifo", Budget: 100}); err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, 1000)
	var sum float64
	for i := range vals {
		vals[i] = int64(i)
		sum += float64(i)
	}
	trueAvg := sum / 1000
	if err := tb.InsertColumn("a", vals); err != nil {
		t.Fatal(err)
	}

	// Fate 4 first: summarise the forgotten mass.
	absorbed, err := tb.Summarize("a")
	if err != nil {
		t.Fatal(err)
	}
	if absorbed != 900 {
		t.Fatalf("absorbed %d", absorbed)
	}
	// Fate 3: also demote the same tuples to cold storage.
	moved, err := tb.DemoteForgotten()
	if err != nil {
		t.Fatal(err)
	}
	if moved != 900 {
		t.Fatalf("demoted %d", moved)
	}
	// Fate 1 is the default (marked; complete scan still sees them).
	all, err := tb.SelectWithForgotten("a", amnesiadb.All())
	if err != nil {
		t.Fatal(err)
	}
	if all.Count() != 1000 {
		t.Fatalf("complete scan saw %d", all.Count())
	}
	// Fate: physically vacuum the hot store.
	tb.Vacuum()
	if tb.Stats().Tuples != 100 {
		t.Fatalf("post-vacuum tuples = %d", tb.Stats().Tuples)
	}
	// The summary still reconstructs the all-time average exactly.
	got, err := tb.ApproxAvg("a")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-trueAvg) > 1e-9 {
		t.Fatalf("approx avg %v, want %v", got, trueAvg)
	}
	// The cold tier recovers in place, so Vacuum reclaims the demoted
	// tuples too: nothing is left in it, and the bill keeps its history.
	if tb.Stats().ColdTier != 0 {
		t.Fatalf("cold tier = %d after vacuum, want 0", tb.Stats().ColdTier)
	}
}

// TestVacuumReclaimsColdTier pins the demote → vacuum → recover fix:
// Vacuum used to leave the cold tier holding pre-vacuum positions, so
// RecoverRange reactivated unrelated tuples or — here — panicked out of
// range while holding the table's exclusive lock. Vacuum now reclaims
// demoted tuples too, and replay agrees.
func TestVacuumReclaimsColdTier(t *testing.T) {
	dir := t.TempDir()
	opts := amnesiadb.Options{Seed: 3, Fsync: "always"}
	db, err := amnesiadb.OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("v", "v")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.SetPolicy(amnesiadb.Policy{Strategy: "fifo", Budget: 4}); err != nil {
		t.Fatal(err)
	}
	if err := tb.InsertColumn("v", []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	if n, err := tb.DemoteForgotten(); err != nil || n != 6 {
		t.Fatalf("demoted %d, %v; want 6", n, err)
	}
	if err := tb.Vacuum(); err != nil {
		t.Fatal(err)
	}
	hits, _, err := tb.RecoverRange("v", 0, 6)
	if err != nil || len(hits) != 0 {
		t.Fatalf("RecoverRange after vacuum = %v, %v; want no hits and no error", hits, err)
	}
	if st := tb.Stats(); st.ColdTier != 0 || st.Tuples != 4 {
		t.Fatalf("stats after vacuum = %+v, want 4 tuples and an empty cold tier", st)
	}
	const sum = "SELECT SUM(v) FROM v"
	want, err := db.Query(sum)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	re, err := amnesiadb.OpenDir(dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	got, err := re.Query(sum)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows[0][0] != want.Rows[0][0] || want.Rows[0][0] != 30 {
		t.Fatalf("SUM after reopen = %v, before = %v; want 30 both", got.Rows, want.Rows)
	}
}

// TestSnapshotMidExperiment snapshots a durable database halfway
// through an amnesia run, reopens it from the snapshot, and checks the
// restored table's precision metrics match the original exactly and
// that it keeps forgetting under a new policy.
func TestSnapshotMidExperiment(t *testing.T) {
	dir := t.TempDir()
	opts := amnesiadb.Options{Seed: 21, Fsync: "off"}
	db, err := amnesiadb.OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("run", "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.SetPolicy(amnesiadb.Policy{Strategy: "uniform", Budget: 300}); err != nil {
		t.Fatal(err)
	}
	src := xrand.New(5)
	for round := 0; round < 5; round++ {
		vals := make([]int64, 200)
		for i := range vals {
			vals[i] = src.Int63n(100000)
		}
		if err := tb.InsertColumn("a", vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Snapshot(); err != nil {
		t.Fatal(err)
	}
	rf1, mf1, pf1, err := tb.Precision(context.Background(), "a", amnesiadb.Range(0, 50000))
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	re, err := amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: 99, Fsync: "off"})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	back, _ := re.Table("run")
	rf2, mf2, pf2, err := back.Precision(context.Background(), "a", amnesiadb.Range(0, 50000))
	if err != nil {
		t.Fatal(err)
	}
	if rf1 != rf2 || mf1 != mf2 || pf1 != pf2 {
		t.Fatalf("restored precision differs: (%d,%d,%v) vs (%d,%d,%v)", rf2, mf2, pf2, rf1, mf1, pf1)
	}
	// The restored table accepts a policy and keeps forgetting.
	if err := back.SetPolicy(amnesiadb.Policy{Strategy: "fifo", Budget: 100}); err != nil {
		t.Fatal(err)
	}
	if err := back.EnforceBudget(); err != nil {
		t.Fatal(err)
	}
	if back.Stats().Active != 100 {
		t.Fatalf("restored table active = %d", back.Stats().Active)
	}
}

// TestSQLOverAmnesiacStore checks the SQL layer and the facade policy
// machinery compose: the same query's COUNT shrinks as the policy bites.
func TestSQLOverAmnesiacStore(t *testing.T) {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 31})
	tb, err := db.CreateTable("logs", "sev")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.InsertColumn("sev", []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); err != nil {
		t.Fatal(err)
	}
	before, err := db.Query("SELECT COUNT(*) FROM logs WHERE sev >= 5")
	if err != nil {
		t.Fatal(err)
	}
	if before.Rows[0][0] != 6 {
		t.Fatalf("pre-amnesia count = %v", before.Rows[0][0])
	}
	if err := tb.SetPolicy(amnesiadb.Policy{Strategy: "fifo", Budget: 4}); err != nil {
		t.Fatal(err)
	}
	if err := tb.EnforceBudget(); err != nil {
		t.Fatal(err)
	}
	after, err := db.Query("SELECT COUNT(*) FROM logs WHERE sev >= 5")
	if err != nil {
		t.Fatal(err)
	}
	if after.Rows[0][0] != 4 { // FIFO keeps 7,8,9,10
		t.Fatalf("post-amnesia count = %v", after.Rows[0][0])
	}
}
