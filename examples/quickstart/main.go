// Quickstart: create a table, give it an amnesia policy, watch it forget.
//
//	go run ./examples/quickstart
//
// The example loads one million uniform readings into a table whose
// policy allows only 100k active tuples under the rot strategy, runs a
// query workload so the table learns what is interesting, and prints how
// precision degrades gracefully while the storage budget holds.
package main

import (
	"context"
	"fmt"
	"log"

	"amnesiadb"
	"amnesiadb/internal/xrand"
)

func main() {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 42})
	t, err := db.CreateTable("readings", "value")
	if err != nil {
		log.Fatal(err)
	}

	// Budget: at most 100k active tuples, forgotten by access frequency.
	if err := t.SetPolicy(amnesiadb.Policy{Strategy: "rot", Budget: 100_000}); err != nil {
		log.Fatal(err)
	}

	src := xrand.New(7)
	const batch = 20_000 // 20% volatility per round against the budget
	for round := 1; round <= 50; round++ {
		vals := make([]int64, batch)
		for i := range vals {
			vals[i] = src.Int63n(1_000_000)
		}
		// The workload runs before the insert, so the rot policy has
		// fresh frequencies when it must forget: the band [0, 100k) is
		// what we care about, and touching it teaches rot to keep it.
		if round > 1 {
			if _, err := t.Select("value", amnesiadb.Range(0, 100_000)); err != nil {
				log.Fatal(err)
			}
		}
		if err := t.InsertColumn("value", vals); err != nil {
			log.Fatal(err)
		}

		if round%10 != 0 {
			continue
		}
		rf, mf, pf, err := t.Precision(context.Background(), "value", amnesiadb.Range(0, 100_000))
		if err != nil {
			log.Fatal(err)
		}
		overall := float64(t.Stats().Active) / float64(t.Stats().Tuples)
		s := t.Stats()
		fmt.Printf("round %2d: stored=%7d active=%6d  hot-band precision=%.3f (returned %d, missed %d; blind forgetting would give %.3f)\n",
			round, s.Tuples, s.Active, pf, rf, mf, overall)
	}

	// The budget held the whole time; show the final ledger.
	s := t.Stats()
	fmt.Printf("\nfinal: %d tuples stored, %d active (budget %d), %d forgotten\n",
		s.Tuples, s.Active, t.Policy().Budget, s.Forgotten)

	avg, err := t.Aggregate("value", amnesiadb.All())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AVG over active data: %.1f (count %d)\n", avg.Avg, avg.Count)
}
