// Package coldstore simulates the "move forgotten data to cheap slow
// cold-storage" fate of §1. Forgotten tuples are demoted out of the hot
// table into a cold tier whose cost/latency model defaults to the AWS
// Glacier numbers the paper quotes for 2016 ($48/TB-year storage,
// $2.50-$30/TB retrieval, hours of latency). Recovery is explicit — cold
// data "will never show up in query results, unless the user takes the
// action and recovers" (§5).
//
// The tier is in-memory and recovers in place, by hot-table position: it
// does not survive the hot table's Vacuum, which reclaims demoted tuples
// with every other forgotten one (Reclaim), nor a restart.
package coldstore

import (
	"fmt"
	"sort"
	"time"

	"amnesiadb/internal/table"
)

// CostModel prices the cold tier. All monetary figures are USD.
type CostModel struct {
	// StorePerTBYear is the at-rest cost of one terabyte for one year.
	StorePerTBYear float64
	// RetrievePerTB is the cost of pulling one terabyte back.
	RetrievePerTB float64
	// RetrievalLatency is the simulated time before recovered data is
	// usable.
	RetrievalLatency time.Duration
}

// Glacier2016 is the paper's §1 reference point for cold storage pricing.
var Glacier2016 = CostModel{
	StorePerTBYear:   48,
	RetrievePerTB:    30,
	RetrievalLatency: 12 * time.Hour,
}

// tupleBytes is the accounted size of one demoted tuple: an 8-byte value
// per column plus a 4-byte position.
func tupleBytes(columns int) int { return columns*8 + 4 }

// Store is a cold tier bound to one table. Demoted tuples keep their
// original positions so recovery can reactivate them in place.
type Store struct {
	t     *table.Table
	model CostModel

	frozen map[int][]int64 // position -> column values at demotion time
	order  []int           // demotion order for deterministic iteration

	bytesStored    int64
	bytesRetrieved int64
	retrievals     int
}

// New returns an empty cold store for t using the given cost model.
func New(t *table.Table, model CostModel) *Store {
	return &Store{t: t, model: model, frozen: make(map[int][]int64)}
}

// Demote moves every currently forgotten, not-yet-demoted tuple into the
// cold tier and returns how many were demoted. The hot table keeps the
// tuples marked inactive until its next Vacuum, which reclaims them for
// good (see Reclaim).
func (s *Store) Demote() int {
	cols := s.t.Columns()
	n := 0
	for _, i := range s.t.ForgottenIndices() {
		if _, dup := s.frozen[i]; dup {
			continue
		}
		vals := make([]int64, len(cols))
		for ci, cn := range cols {
			vals[ci] = s.t.MustColumn(cn).Get(i)
		}
		s.frozen[i] = vals
		s.order = append(s.order, i)
		s.bytesStored += int64(tupleBytes(len(cols)))
		n++
	}
	return n
}

// Tuples returns the number of tuples resident in the cold tier.
func (s *Store) Tuples() int { return len(s.frozen) }

// BytesStored returns the accounted cold-tier footprint in bytes.
func (s *Store) BytesStored() int64 { return s.bytesStored }

// Recover reactivates the given tuple positions from the cold tier,
// returning the simulated latency of the retrieval and an error if any
// position is not cold. Recovered tuples become active again and leave
// the cold tier.
func (s *Store) Recover(positions []int) (time.Duration, error) {
	for _, p := range positions {
		if _, ok := s.frozen[p]; !ok {
			return 0, fmt.Errorf("coldstore: tuple %d is not in cold storage", p)
		}
	}
	cols := len(s.t.Columns())
	for _, p := range positions {
		delete(s.frozen, p)
		s.t.Remember(p)
		s.bytesRetrieved += int64(tupleBytes(cols))
		s.bytesStored -= int64(tupleBytes(cols))
	}
	if len(positions) > 0 {
		s.retrievals++
		s.compactOrder()
	}
	return s.model.RetrievalLatency, nil
}

// RecoverRange reactivates every cold tuple whose value in column col lies
// in [lo, hi), returning the recovered positions and simulated latency.
// This is the "recover a backup version explicitly" workflow of §5.
func (s *Store) RecoverRange(col string, lo, hi int64) ([]int, time.Duration, error) {
	ci := -1
	for idx, cn := range s.t.Columns() {
		if cn == col {
			ci = idx
			break
		}
	}
	if ci < 0 {
		return nil, 0, fmt.Errorf("coldstore: unknown column %q", col)
	}
	var hits []int
	for _, p := range s.order {
		vals, ok := s.frozen[p]
		if !ok {
			continue
		}
		if vals[ci] >= lo && vals[ci] < hi {
			hits = append(hits, p)
		}
	}
	sort.Ints(hits)
	lat, err := s.Recover(hits)
	return hits, lat, err
}

// Reclaim drops every resident: the hot table's Vacuum reclaimed their
// positions along with every other forgotten tuple, so nothing is left
// to recover in place. The retrieval history stays on the bill.
func (s *Store) Reclaim() {
	clear(s.frozen)
	s.order = s.order[:0]
	s.bytesStored = 0
}

// compactOrder drops recovered positions from the demotion order.
func (s *Store) compactOrder() {
	w := 0
	for _, p := range s.order {
		if _, ok := s.frozen[p]; ok {
			s.order[w] = p
			w++
		}
	}
	s.order = s.order[:w]
}

// Bill summarises the accumulated cost of using the cold tier.
type Bill struct {
	// StoragePerYear is the annual at-rest cost of the current
	// residents.
	StoragePerYear float64
	// RetrievalTotal is the cumulative cost of all retrievals.
	RetrievalTotal float64
	// Retrievals counts recovery round-trips.
	Retrievals int
}

// Bill computes the current cost summary under the store's model.
func (s *Store) Bill() Bill {
	const tb = 1 << 40
	return Bill{
		StoragePerYear: float64(s.bytesStored) / tb * s.model.StorePerTBYear,
		RetrievalTotal: float64(s.bytesRetrieved) / tb * s.model.RetrievePerTB,
		Retrievals:     s.retrievals,
	}
}
