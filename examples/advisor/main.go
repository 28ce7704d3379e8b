// Advisor: §2.2's statistics programme in action — "knowledge about all
// queries and their frequency ... would make it possible to identify if
// and how long a tuple is active before it can be safely forgotten.
// Collecting such statistics is a good start to assess what data amnesia
// an application can afford."
//
//	go run ./examples/advisor
//
// Two applications run the same dashboard database. One only ever looks
// at the most recent data; the other keeps re-reading one narrow slice of
// history. The advisor watches each workload, recommends the matching
// policy, and the example verifies the recommendation by measuring the
// precision each workload gets under its advised policy versus a naive
// uniform one.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"amnesiadb"
	"amnesiadb/internal/xrand"
)

func main() {
	fresh := runWorkload("dashboard-fresh", func(adv *amnesiadb.Advisor, max int64) error {
		// Looks only at the newest 5% of the value range (serial data =
		// arrival order, so this is "the last few minutes").
		_, err := adv.Select(amnesiadb.Range(max*95/100, max+1))
		return err
	})
	slice := runWorkload("auditor-slice", func(adv *amnesiadb.Advisor, max int64) error {
		// Keeps re-reading one old, narrow slice.
		_, err := adv.Select(amnesiadb.Range(1000, 1200))
		return err
	})

	fmt.Println("workload          advised    budget  precision(advised)  precision(uniform)")
	for _, r := range []result{fresh, slice} {
		fmt.Printf("%-17s %-10s %6d  %18.3f  %18.3f\n",
			r.name, r.strategy, r.budget, r.advised, r.uniform)
	}
}

type result struct {
	name     string
	strategy string
	budget   int
	advised  float64
	uniform  float64
}

// runWorkload feeds serial data and the given query pattern to an
// advisor, installs its recommendation, continues the run, and measures
// precision of the workload's own queries against a uniform-policy twin.
func runWorkload(name string, query func(*amnesiadb.Advisor, int64) error) result {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 7})
	tb, err := db.CreateTable(name, "ts")
	if err != nil {
		log.Fatal(err)
	}
	adv, err := tb.NewAdvisor("ts")
	if err != nil {
		log.Fatal(err)
	}

	src := xrand.New(3)
	_ = src
	next := int64(0)
	insert := func(t *amnesiadb.Table) {
		vals := make([]int64, 2000)
		base := next
		for i := range vals {
			vals[i] = base + int64(i)
		}
		if err := t.Insert(map[string][]int64{"ts": vals}); err != nil {
			log.Fatal(err)
		}
	}

	// Observation phase: 10 batches with the workload running.
	for round := 0; round < 10; round++ {
		insert(tb)
		next += 2000
		for q := 0; q < 20; q++ {
			if err := query(adv, next-1); err != nil && !errors.Is(err, amnesiadb.ErrNoRows) {
				log.Fatal(err)
			}
		}
	}
	advice, err := adv.Advise(0.9)
	if err != nil {
		log.Fatal(err)
	}

	// Verification phase: two twins under budget pressure, one advised,
	// one uniform, same continued workload.
	measure := func(strategy string) float64 {
		twin := amnesiadb.Open(amnesiadb.Options{Seed: 7})
		t2, err := twin.CreateTable(name, "ts")
		if err != nil {
			log.Fatal(err)
		}
		a2, err := t2.NewAdvisor("ts")
		if err != nil {
			log.Fatal(err)
		}
		if err := t2.SetPolicy(amnesiadb.Policy{Strategy: strategy, Budget: advice.Budget}); err != nil {
			log.Fatal(err)
		}
		n := int64(0)
		var lastPF float64 = 1
		for round := 0; round < 10; round++ {
			vals := make([]int64, 2000)
			for i := range vals {
				vals[i] = n + int64(i)
			}
			if err := t2.Insert(map[string][]int64{"ts": vals}); err != nil {
				log.Fatal(err)
			}
			n += 2000
			for q := 0; q < 20; q++ {
				if err := query(a2, n-1); err != nil && !errors.Is(err, amnesiadb.ErrNoRows) {
					log.Fatal(err)
				}
			}
		}
		// Final precision of the workload's own query shape.
		var rf, mf int
		if name == "dashboard-fresh" {
			rf, mf, lastPF, err = t2.Precision(context.Background(), "ts", amnesiadb.Range(n*95/100, n+1))
		} else {
			rf, mf, lastPF, err = t2.Precision(context.Background(), "ts", amnesiadb.Range(1000, 1200))
		}
		if err != nil {
			log.Fatal(err)
		}
		_, _ = rf, mf
		return lastPF
	}

	return result{
		name:     name,
		strategy: advice.Strategy,
		budget:   advice.Budget,
		advised:  measure(advice.Strategy),
		uniform:  measure("uniform"),
	}
}
