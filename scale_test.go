package amnesiadb_test

import (
	"context"
	"testing"

	"amnesiadb"
	"amnesiadb/internal/xrand"
)

// TestScaleMillionTuples pushes a million tuples through a 100k budget
// under every strategy, asserting the budget invariant and sane precision
// at a scale 1000x the paper's. Skipped with -short.
func TestScaleMillionTuples(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("scale test skipped under the race detector")
	}
	for _, strat := range []string{"fifo", "uniform", "ante", "rot", "area", "areav", "decay"} {
		t.Run(strat, func(t *testing.T) {
			db := amnesiadb.Open(amnesiadb.Options{Seed: 1})
			tb, err := db.CreateTable("big", "a")
			if err != nil {
				t.Fatal(err)
			}
			if err := tb.SetPolicy(amnesiadb.Policy{Strategy: strat, Budget: 100_000}); err != nil {
				t.Fatal(err)
			}
			src := xrand.New(2)
			for round := 0; round < 10; round++ {
				vals := make([]int64, 100_000)
				for i := range vals {
					vals[i] = src.Int63n(1 << 20)
				}
				if err := tb.InsertColumn("a", vals); err != nil {
					t.Fatal(err)
				}
			}
			s := tb.Stats()
			if s.Tuples != 1_000_000 || s.Active != 100_000 {
				t.Fatalf("stats = %+v", s)
			}
			_, _, pf, err := tb.Precision(context.Background(), "a", amnesiadb.Range(0, 1<<19))
			if err != nil {
				t.Fatal(err)
			}
			if pf < 0.05 || pf > 0.5 {
				t.Fatalf("precision %v outside plausible envelope", pf)
			}
		})
	}
}
