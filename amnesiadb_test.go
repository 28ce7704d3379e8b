package amnesiadb

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func newTable(t *testing.T, vals ...int64) *Table {
	t.Helper()
	db := Open(Options{Seed: 1})
	tbl, err := db.CreateTable("t", "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) > 0 {
		if err := tbl.InsertColumn("a", vals); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

func TestCreateTableValidation(t *testing.T) {
	db := Open(Options{})
	if _, err := db.CreateTable("t", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("t", "a"); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if _, err := db.CreateTable("empty"); err == nil {
		t.Fatal("zero-column table accepted")
	}
}

func TestTableLookupAndNames(t *testing.T) {
	db := Open(Options{})
	if _, err := db.CreateTable("b", "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("a", "x"); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Table("a"); !ok {
		t.Fatal("lookup failed")
	}
	if _, ok := db.Table("zz"); ok {
		t.Fatal("phantom table")
	}
	rels := db.Relations()
	if len(rels) != 2 || rels[0].Name != "a" || rels[1].Name != "b" {
		t.Fatalf("relations = %v", rels)
	}
}

func TestInsertAndSelect(t *testing.T) {
	tbl := newTable(t, 10, 20, 30, 40)
	res, err := tbl.Select("a", Range(15, 35))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 2 || res.Values[0] != 20 || res.Values[1] != 30 {
		t.Fatalf("res = %+v", res)
	}
}

func TestPredicates(t *testing.T) {
	tbl := newTable(t, 1, 2, 3, 4, 5)
	cases := []struct {
		p    Pred
		want int
	}{
		{All(), 5},
		{Eq(3), 1},
		{Lt(3), 2},
		{Ge(4), 2},
		{And(Ge(2), Lt(5)), 3},
		{Range(5, 2), 3}, // inverted bounds are normalised
	}
	for _, c := range cases {
		res, err := tbl.Select("a", c.p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count() != c.want {
			t.Fatalf("%s matched %d, want %d", c.p, res.Count(), c.want)
		}
	}
	if All().String() != "TRUE" || (Pred{}).String() != "TRUE" {
		t.Fatal("predicate strings wrong")
	}
}

func TestPolicyEnforcedOnInsert(t *testing.T) {
	tbl := newTable(t)
	if err := tbl.SetPolicy(Policy{Strategy: "fifo", Budget: 100}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertColumn("a", seq(250)); err != nil {
		t.Fatal(err)
	}
	s := tbl.Stats()
	if s.Active != 100 || s.Tuples != 250 {
		t.Fatalf("stats = %+v", s)
	}
	// FIFO keeps the newest 100.
	res, err := tbl.Select("a", All())
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] != 150 {
		t.Fatalf("oldest active = %d, want 150", res.Values[0])
	}
}

func TestSetPolicyValidation(t *testing.T) {
	tbl := newTable(t, 1)
	if err := tbl.SetPolicy(Policy{Strategy: "bogus", Budget: 10}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if err := tbl.SetPolicy(Policy{Strategy: "fifo", Budget: -1}); err == nil {
		t.Fatal("negative budget accepted")
	}
	// Budget 0 disables amnesia.
	if err := tbl.SetPolicy(Policy{}); err != nil {
		t.Fatal(err)
	}
	if tbl.Policy().Budget != 0 {
		t.Fatal("policy not cleared")
	}
}

func TestAllStrategiesViaFacade(t *testing.T) {
	for _, s := range Strategies() {
		db := Open(Options{Seed: 7})
		tbl, err := db.CreateTable("t", "a")
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.SetPolicy(Policy{Strategy: s, Budget: 50}); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if err := tbl.InsertColumn("a", seq(200)); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if got := tbl.Stats().Active; got != 50 {
			t.Fatalf("%s: active = %d", s, got)
		}
	}
}

func TestSelectWithForgotten(t *testing.T) {
	tbl := newTable(t)
	if err := tbl.SetPolicy(Policy{Strategy: "fifo", Budget: 10}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertColumn("a", seq(30)); err != nil {
		t.Fatal(err)
	}
	act, err := tbl.Select("a", All())
	if err != nil {
		t.Fatal(err)
	}
	all, err := tbl.SelectWithForgotten("a", All())
	if err != nil {
		t.Fatal(err)
	}
	if act.Count() != 10 || all.Count() != 30 {
		t.Fatalf("active=%d all=%d", act.Count(), all.Count())
	}
}

func TestAggregate(t *testing.T) {
	tbl := newTable(t, 10, 20, 30)
	a, err := tbl.Aggregate("a", All())
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != 3 || a.Sum != 60 || a.Avg != 20 || a.Min != 10 || a.Max != 30 {
		t.Fatalf("agg = %+v", a)
	}
	_, err = tbl.Aggregate("a", Range(100, 200))
	if !errors.Is(err, ErrNoRows) {
		t.Fatalf("err = %v", err)
	}
}

func TestPrecisionViaFacade(t *testing.T) {
	tbl := newTable(t)
	if err := tbl.SetPolicy(Policy{Strategy: "uniform", Budget: 50}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertColumn("a", seq(100)); err != nil {
		t.Fatal(err)
	}
	rf, mf, pf, err := tbl.Precision(context.Background(), "a", All())
	if err != nil {
		t.Fatal(err)
	}
	if rf != 50 || mf != 50 || math.Abs(pf-0.5) > 1e-12 {
		t.Fatalf("rf=%d mf=%d pf=%v", rf, mf, pf)
	}
}

func TestVacuumReclaims(t *testing.T) {
	tbl := newTable(t)
	if err := tbl.SetPolicy(Policy{Strategy: "fifo", Budget: 20}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertColumn("a", seq(100)); err != nil {
		t.Fatal(err)
	}
	tbl.Vacuum()
	s := tbl.Stats()
	if s.Tuples != 20 || s.Forgotten != 0 {
		t.Fatalf("post-vacuum stats = %+v", s)
	}
}

func TestColdTierLifecycle(t *testing.T) {
	tbl := newTable(t)
	if err := tbl.SetPolicy(Policy{Strategy: "fifo", Budget: 50}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertColumn("a", seq(100)); err != nil {
		t.Fatal(err)
	}
	moved, err := tbl.DemoteForgotten()
	if err != nil {
		t.Fatal(err)
	}
	if moved != 50 {
		t.Fatalf("demoted %d", moved)
	}
	if tbl.Stats().ColdTier != 50 {
		t.Fatalf("cold tier = %d", tbl.Stats().ColdTier)
	}
	// Forgotten values 0..49 are cold; recover 10..20.
	pos, lat, err := tbl.RecoverRange("a", 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(pos) != 10 || lat <= 0 {
		t.Fatalf("recovered %d positions, latency %v", len(pos), lat)
	}
	res, err := tbl.Select("a", Range(10, 20))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 10 {
		t.Fatalf("recovered tuples not queryable: %d", res.Count())
	}
	bill := tbl.ColdBill()
	if bill.Retrievals != 1 || bill.RetrievalTotal <= 0 {
		t.Fatalf("bill = %+v", bill)
	}
}

func TestRecoverWithoutColdTier(t *testing.T) {
	tbl := newTable(t, 1)
	if _, _, err := tbl.RecoverRange("a", 0, 1); err == nil {
		t.Fatal("recovery without cold tier accepted")
	}
	if b := tbl.ColdBill(); b != (Bill{}) {
		t.Fatalf("bill without cold tier = %+v", b)
	}
}

func TestSummarizeAndApproxAvg(t *testing.T) {
	tbl := newTable(t)
	vals := seq(1000)
	var sum int64
	for _, v := range vals {
		sum += v
	}
	trueAvg := float64(sum) / 1000
	if err := tbl.SetPolicy(Policy{Strategy: "uniform", Budget: 200}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertColumn("a", vals); err != nil {
		t.Fatal(err)
	}
	absorbed, err := tbl.Summarize("a")
	if err != nil {
		t.Fatal(err)
	}
	if absorbed != 800 {
		t.Fatalf("absorbed %d", absorbed)
	}
	tbl.Vacuum()
	got, err := tbl.ApproxAvg("a")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-trueAvg) > 1e-9 {
		t.Fatalf("approx avg %v, want %v", got, trueAvg)
	}
	if tbl.Stats().Segments != 1 {
		t.Fatalf("segments = %d", tbl.Stats().Segments)
	}
}

func TestForgottenQuantileFacade(t *testing.T) {
	tbl := newTable(t)
	if err := tbl.SetPolicy(Policy{Strategy: "fifo", Budget: 100}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertColumn("a", seq(1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.ForgottenQuantile(0.5); err == nil {
		t.Fatal("quantile before summaries succeeded")
	}
	if _, err := tbl.Summarize("a"); err != nil {
		t.Fatal(err)
	}
	// Forgotten = values 0..899; median ~450.
	med, err := tbl.ForgottenQuantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if med < 400 || med > 500 {
		t.Fatalf("median of deleted data = %d", med)
	}
}

func TestApproxAvgWithoutBook(t *testing.T) {
	tbl := newTable(t, 10, 20)
	got, err := tbl.ApproxAvg("a")
	if err != nil || got != 15 {
		t.Fatalf("approx avg = %v, %v", got, err)
	}
}

func TestMultiColumnInsert(t *testing.T) {
	db := Open(Options{Seed: 3})
	tbl, err := db.CreateTable("events", "ts", "val")
	if err != nil {
		t.Fatal(err)
	}
	err = tbl.Insert(map[string][]int64{
		"ts":  {1, 2, 3},
		"val": {100, 200, 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tbl.Select("val", Ge(200))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 2 {
		t.Fatalf("count = %d", res.Count())
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []int {
		db := Open(Options{Seed: 99})
		tbl, err := db.CreateTable("t", "a")
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.SetPolicy(Policy{Strategy: "uniform", Budget: 50}); err != nil {
			t.Fatal(err)
		}
		if err := tbl.InsertColumn("a", seq(200)); err != nil {
			t.Fatal(err)
		}
		act, _ := tbl.ActivePerBatch()
		return act
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic with equal seeds")
		}
	}
}

func TestQuerySQL(t *testing.T) {
	dbh := Open(Options{Seed: 5})
	tb, err := dbh.CreateTable("m", "v")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.InsertColumn("v", []int64{10, 20, 30, 40}); err != nil {
		t.Fatal(err)
	}
	res, err := dbh.Query("SELECT AVG(v) FROM m WHERE v > 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != 30 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Ints[0] {
		t.Fatal("AVG flagged as integer")
	}
	proj, err := dbh.Query("SELECT v FROM m WHERE v >= 20 LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(proj.Rows) != 2 || proj.Rows[0][0] != 20 {
		t.Fatalf("projection = %v", proj.Rows)
	}
	if _, err := dbh.Query("SELECT v FROM nope"); err == nil {
		t.Fatal("unknown table accepted")
	}
	if _, err := dbh.Query("DELETE FROM m"); err == nil {
		t.Fatal("non-SELECT accepted")
	}
}

func TestQuerySeesOnlyActive(t *testing.T) {
	db := Open(Options{Seed: 6})
	tb, err := db.CreateTable("t", "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.SetPolicy(Policy{Strategy: "fifo", Budget: 2}); err != nil {
		t.Fatal(err)
	}
	if err := tb.InsertColumn("a", []int64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != 2 {
		t.Fatalf("count = %v, want 2", res.Rows[0][0])
	}
}

func TestGroupByFacade(t *testing.T) {
	tbl := newTable(t, 1, 1, 12, 13, 25)
	byValue, err := tbl.GroupBy("a", All(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(byValue) != 4 || byValue[0].Count != 2 {
		t.Fatalf("by value = %+v", byValue)
	}
	byBucket, err := tbl.GroupBy("a", All(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(byBucket) != 3 || byBucket[1].Key != 10 || byBucket[1].Count != 2 {
		t.Fatalf("by bucket = %+v", byBucket)
	}
	if _, err := tbl.GroupBy("a", All(), -1); err == nil {
		t.Fatal("negative width accepted")
	}
}

func TestAdvisorRecommendsForWorkload(t *testing.T) {
	db := Open(Options{Seed: 14})
	tb, err := db.CreateTable("t", "a")
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 10; b++ {
		if err := tb.InsertColumn("a", seq(100)); err != nil {
			t.Fatal(err)
		}
	}
	adv, err := tb.NewAdvisor("a")
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate-dominant workload.
	for q := 0; q < 20; q++ {
		if _, err := adv.Aggregate(All()); err != nil {
			t.Fatal(err)
		}
	}
	advice, err := adv.Advise(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if advice.Strategy != "pairwise" {
		t.Fatalf("aggregate workload advised %q (%s)", advice.Strategy, advice.Reason)
	}
	if advice.Budget <= 0 || advice.Reason == "" {
		t.Fatalf("advice = %+v", advice)
	}
	// The advised policy must actually be installable.
	if err := tb.SetPolicy(Policy{Strategy: advice.Strategy, Budget: advice.Budget}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.NewAdvisor("zz"); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestAdvisorSelectPath(t *testing.T) {
	db := Open(Options{Seed: 15})
	tb, err := db.CreateTable("t", "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.InsertColumn("a", seq(100)); err != nil {
		t.Fatal(err)
	}
	adv, err := tb.NewAdvisor("a")
	if err != nil {
		t.Fatal(err)
	}
	res, err := adv.Select(Range(10, 20))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 10 {
		t.Fatalf("advised select = %d rows", res.Count())
	}
	if _, err := adv.Advise(0.5); err != nil {
		t.Fatal(err)
	}
}

func TestMaxAgeRetentionWindow(t *testing.T) {
	db := Open(Options{Seed: 12})
	tb, err := db.CreateTable("t", "a")
	if err != nil {
		t.Fatal(err)
	}
	// Pure retention window, no budget: keep the last 2 batches.
	if err := tb.SetPolicy(Policy{MaxAgeBatches: 2}); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 5; b++ {
		if err := tb.InsertColumn("a", []int64{int64(b), int64(b)}); err != nil {
			t.Fatal(err)
		}
	}
	active, _ := tb.ActivePerBatch()
	// Batches 0,1 are older than 2 batches at the end; 2,3,4 retained.
	if active[0] != 0 || active[1] != 0 {
		t.Fatalf("expired batches still active: %v", active)
	}
	if active[2] != 2 || active[3] != 2 || active[4] != 2 {
		t.Fatalf("in-window batches lost: %v", active)
	}
}

func TestMaxAgeComposesWithBudget(t *testing.T) {
	db := Open(Options{Seed: 13})
	tb, err := db.CreateTable("t", "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.SetPolicy(Policy{Strategy: "uniform", Budget: 3, MaxAgeBatches: 1}); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 4; b++ {
		if err := tb.InsertColumn("a", []int64{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	s := tb.Stats()
	if s.Active > 3 {
		t.Fatalf("budget exceeded: %d", s.Active)
	}
	active, _ := tb.ActivePerBatch()
	for b := 0; b < 2; b++ { // older than 1 batch
		if active[b] != 0 {
			t.Fatalf("expired batch %d still active: %v", b, active)
		}
	}
	if err := tb.SetPolicy(Policy{MaxAgeBatches: -1}); err == nil {
		t.Fatal("negative MaxAgeBatches accepted")
	}
}

func TestJoinViaFacade(t *testing.T) {
	db := Open(Options{Seed: 9})
	orders, err := db.CreateTable("orders", "cust")
	if err != nil {
		t.Fatal(err)
	}
	custs, err := db.CreateTable("customers", "id")
	if err != nil {
		t.Fatal(err)
	}
	if err := custs.InsertColumn("id", []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := orders.InsertColumn("cust", []int64{1, 1, 2, 9}); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Join(context.Background(), orders, "cust", custs, "id", All())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("join pairs = %d, want 3", len(rows))
	}
	// Forget customer 1: its two orders drop out of the active join.
	if err := custs.SetPolicy(Policy{Strategy: "fifo", Budget: 2}); err != nil {
		t.Fatal(err)
	}
	if err := custs.EnforceBudget(); err != nil {
		t.Fatal(err)
	}
	rf, mf, pf, err := db.JoinPrecision(context.Background(), orders, "cust", custs, "id", All())
	if err != nil {
		t.Fatal(err)
	}
	if rf != 1 || mf != 2 || math.Abs(pf-1.0/3.0) > 1e-12 {
		t.Fatalf("join precision rf=%d mf=%d pf=%v", rf, mf, pf)
	}
}

func TestSelfJoin(t *testing.T) {
	db := Open(Options{Seed: 10})
	tb, err := db.CreateTable("t", "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.InsertColumn("a", []int64{1, 2, 2}); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Join(context.Background(), tb, "a", tb, "a", All())
	if err != nil {
		t.Fatal(err)
	}
	// 1-1 once; 2s pair 2x2 = 4: total 5.
	if len(rows) != 5 {
		t.Fatalf("self-join pairs = %d, want 5", len(rows))
	}
}

func TestPropertyBudgetNeverExceeded(t *testing.T) {
	f := func(batches []uint8, budgetRaw uint8, stratIdx uint8) bool {
		budget := int(budgetRaw)%100 + 1
		strat := Strategies()[int(stratIdx)%len(Strategies())]
		db := Open(Options{Seed: uint64(budgetRaw) + 1})
		tbl, err := db.CreateTable("t", "a")
		if err != nil {
			return false
		}
		if err := tbl.SetPolicy(Policy{Strategy: strat, Budget: budget}); err != nil {
			return false
		}
		for _, b := range batches {
			n := int(b)%50 + 1
			if err := tbl.InsertColumn("a", seq(n)); err != nil {
				return false
			}
			if tbl.Stats().Active > budget {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
