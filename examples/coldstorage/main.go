// Coldstorage: the §1 economics of forgotten data — demote cold tuples to
// a Glacier-priced tier, pay to bring some back.
//
//	go run ./examples/coldstorage
//
// An audit-log table forgets everything older than its budget (FIFO) and
// demotes the forgotten tuples to the simulated cold tier each month. It
// deliberately never vacuums: the tier is in-memory and recovers in
// place, so a Vacuum would reclaim the demoted tuples for good. When an
// investigation needs one old value band back, the example recovers
// exactly that band and prints the latency and the bill.
package main

import (
	"fmt"
	"log"

	"amnesiadb"
	"amnesiadb/internal/xrand"
)

func main() {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 11})
	audit, err := db.CreateTable("audit", "event_id")
	if err != nil {
		log.Fatal(err)
	}
	const hotBudget = 20_000
	if err := audit.SetPolicy(amnesiadb.Policy{Strategy: "fifo", Budget: hotBudget}); err != nil {
		log.Fatal(err)
	}

	// A year of audit events; ids are serial so value = arrival order.
	src := xrand.New(3)
	_ = src
	next := int64(0)
	for month := 0; month < 12; month++ {
		vals := make([]int64, 10_000)
		for i := range vals {
			vals[i] = next
			next++
		}
		if err := audit.InsertColumn("event_id", vals); err != nil {
			log.Fatal(err)
		}
		// Monthly maintenance: demote what FIFO forgot.
		moved, err := audit.DemoteForgotten()
		if err != nil {
			log.Fatal(err)
		}
		if moved > 0 {
			fmt.Printf("month %2d: demoted %6d events to cold storage\n", month+1, moved)
		}
	}
	s := audit.Stats()
	bill := audit.ColdBill()
	fmt.Printf("\nhot tier: %d active events; cold tier: %d events (storage $%.6f/yr)\n",
		s.Active, s.ColdTier, bill.StoragePerYear)

	// Hot queries only see the fresh window.
	fresh, err := audit.Select("event_id", amnesiadb.Range(0, int64(12*10_000)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query over all ids sees %d events (the hot window)\n", fresh.Count())

	// The investigation: recover events 30000-30500 from the cold tier.
	pos, latency, err := audit.RecoverRange("event_id", 30_000, 30_500)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered %d events after a simulated %v retrieval\n", len(pos), latency)

	again, err := audit.Select("event_id", amnesiadb.Range(30_000, 30_500))
	if err != nil {
		log.Fatal(err)
	}
	bill = audit.ColdBill()
	fmt.Printf("the band is queryable again: %d events; bill so far: $%.6f retrieval across %d retrievals\n",
		again.Count(), bill.RetrievalTotal, bill.Retrievals)
}
