package amnesiadb

import (
	"context"

	"amnesiadb/internal/partition"
	"amnesiadb/internal/snapshot"
	"amnesiadb/internal/sql"
	"amnesiadb/internal/wal"
)

// PartitionedTable is a single-column store split into contiguous
// value-range shards, each with its own amnesia budget — the §4.4
// adaptive-partitioning vision. Budgets can follow the workload via
// Adapt. Obtain via DB.CreatePartitionedTable. Partitioned tables are
// first-class catalog entries: DB.Query and the HTTP /query endpoint
// route SELECTs to them transparently (a scan is one pipeline over its
// shards, and SQL aggregates feed the Adapt counters like Select does).
//
// Like Table, reads (Select, Precision, Stats, Partitions) run under a
// shared lock and proceed in parallel; Insert and Adapt are exclusive.
// Within one query, Select scans the shards' morsels as a flat scan of
// their rows would, and Precision fans its per-shard scans out
// concurrently, both up to the database's Parallelism knob. Hit
// counters are atomic, so parallel selects still feed the Adapt loop,
// and per-shard budgets are atomic with per-shard mutation locks, so
// the partition layer's Adapt can interleave with Inserts; Adapt
// concurrent with reads still needs this facade's exclusive lock,
// because forgetting mutates the bitmap that lock-free scans read.
type PartitionedTable struct {
	handle
	set *partition.Set
}

func (p *PartitionedTable) attach(inc uint64) {
	p.set.SetParallelism(p.db.par)
	p.set.SetScheduler(p.db.pool)
	p.set.AdvanceEpoch(inc)
	p.rel = sql.NewPartitionRelation(p.set)
}

func (p *PartitionedTable) appendTo(cat *snapshot.Catalog) {
	pe := snapshot.PartEntry{Name: p.name, Column: p.set.Column(), Strategy: p.set.Strategy(), Domain: p.set.Domain()}
	for _, sp := range p.set.Partitions() {
		pe.Shards = append(pe.Shards, snapshot.ShardEntry{Lo: sp.Lo, Hi: sp.Hi, Budget: sp.Budget(), Table: sp.Table()})
	}
	cat.Parts = append(cat.Parts, pe)
}

func (p *PartitionedTable) shards() int { return len(p.set.Partitions()) }

// CreatePartitionedTable creates a partitioned single-column table over
// the value domain [0, domain), split into parts equal-width shards that
// share totalBudget active tuples under the named strategy.
func (db *DB) CreatePartitionedTable(name, column string, domain int64, parts int, strategy string, totalBudget int) (*PartitionedTable, error) {
	set, err := partition.New(column, domain, parts, strategy, totalBudget, db.splitSrc())
	if err != nil {
		return nil, err
	}
	pt := &PartitionedTable{handle: handle{db: db, name: name}, set: set}
	if err := db.register(pt, wal.RecordCreatePart(name, column, domain, parts, strategy, totalBudget)); err != nil {
		return nil, err
	}
	return pt, nil
}

// Column returns the name of the single stored attribute.
func (p *PartitionedTable) Column() string { return p.set.Column() }

// Insert routes values to their shards and enforces per-shard budgets.
// On a durable database the per-shard outcome — appended values plus
// the positions budget enforcement forgot — is logged as one record, so
// replay reproduces the shard state without re-running the stochastic
// strategies.
func (p *PartitionedTable) Insert(vals []int64) error {
	return p.mutate(func() ([]byte, error) {
		if p.db.dur == nil {
			return nil, p.set.Insert(vals)
		}
		var shards []wal.ShardMutation
		err := p.set.InsertObserved(vals, func(shard int, appended []int64, forgotten []int) {
			sortPositions(forgotten)
			shards = append(shards, wal.ShardMutation{
				Shard:     shard,
				Values:    appended,
				Forgotten: forgotten,
			})
		})
		// Shards that committed before a failing one are logged with
		// the error, so the log still matches memory.
		if len(shards) == 0 {
			return nil, err
		}
		return wal.RecordPartInsert(p.name, shards), err
	})
}

// Select returns active values in Range(lo, hi) across the relevant
// shards, recording workload hits for Adapt.
func (p *PartitionedTable) Select(lo, hi int64) ([]int64, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.set.SelectWhere(Range(lo, hi).expr())
}

// Precision reports the §2.3 metrics over Range(lo, hi) across shards.
// A done ctx stops the per-shard scans at their next morsel and returns
// the cause.
func (p *PartitionedTable) Precision(ctx context.Context, lo, hi int64) (rf, mf int, pf float64, err error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.set.Precision(ctx, Range(lo, hi).expr())
}

// Adapt reallocates the total budget toward the shards the workload has
// been querying, then re-enforces the new budgets. On a durable
// database the new per-shard budgets and the forgotten positions are
// logged, so Adapt returns an error when the database is read-only or
// the WAL append fails.
func (p *PartitionedTable) Adapt() error {
	return p.mutate(func() ([]byte, error) {
		if p.db.dur == nil {
			p.set.Adapt()
			return nil, nil
		}
		var shards []wal.ShardAdapt
		p.set.AdaptObserved(func(shard, budget int, forgotten []int) {
			sortPositions(forgotten)
			shards = append(shards, wal.ShardAdapt{
				Shard:     shard,
				Budget:    budget,
				Forgotten: forgotten,
			})
		})
		if len(shards) == 0 {
			return nil, nil
		}
		return wal.RecordPartAdapt(p.name, shards), nil
	})
}

// PartitionInfo describes one shard's state.
type PartitionInfo struct {
	Lo, Hi int64
	Budget int
	Active int
	Stored int
}

// Partitions returns per-shard state in value order.
func (p *PartitionedTable) Partitions() []PartitionInfo {
	p.mu.RLock()
	defer p.mu.RUnlock()
	parts := p.set.Partitions()
	out := make([]PartitionInfo, len(parts))
	for i, sp := range parts {
		st := sp.Table().Stats()
		out[i] = PartitionInfo{Lo: sp.Lo, Hi: sp.Hi, Budget: sp.Budget(), Active: st.Active, Stored: st.Tuples}
	}
	return out
}

// Stats sums the shard counters.
func (p *PartitionedTable) Stats() Stats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	st := p.set.Stats()
	return Stats{Tuples: st.Tuples, Active: st.Active, Forgotten: st.Forgotten, Batches: st.Batches, IndexBytes: st.IndexBytes}
}
