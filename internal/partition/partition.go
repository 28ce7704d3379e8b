// Package partition implements §4.4's closing proposal: "it might be
// worth to study amnesia in the context of adaptive partitioning. Each
// partition can then be tuned to provide the best precision for a subset
// of the workload."
//
// A Set splits one logical attribute domain into contiguous value-range
// partitions, each holding its own table, amnesia strategy and budget.
// Inserts are routed by value; queries read the partitions whose ranges
// intersect the predicate (see SetParallelism). Adapt() rebalances the
// budgets toward the partitions the workload actually queries, which is
// the "tuned to provide the best precision for a subset of the workload"
// loop. Budgets are atomic and each shard serialises its own mutation,
// so Adapt can run online, interleaved with Inserts.
//
// Sets are also SQL citizens: ScanChunkStream, Aggregate and Precision
// take a request context and an arbitrary single-attribute predicate
// (pruning the shards by the predicate's bounding interval), which is
// what the SQL layer's PartitionRelation adapter serves the catalog
// with. Each is one engine call with the intersecting shards' tables as
// its parts — the scan pipeline (engine.Exec.SelectPartsChunkStream),
// the aggregate barrier (AggregateParts) and the precision passes
// (PrecisionParts) — so a shard's morsels are scheduled as a flat
// table's are, on the pool stamped by SetScheduler or the
// process-global one.
package partition

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"amnesiadb/internal/amnesia"
	"amnesiadb/internal/engine"
	"amnesiadb/internal/engine/sched"
	"amnesiadb/internal/expr"
	"amnesiadb/internal/lockrank"
	"amnesiadb/internal/table"
	"amnesiadb/internal/xrand"
)

// Partition is one value-range shard.
type Partition struct {
	// Lo and Hi bound the shard's value range [Lo, Hi).
	Lo, Hi int64

	// budget is the shard's active-tuple allowance. It is atomic because
	// Adapt rewrites it while Insert's budget enforcement reads it; see
	// Budget.
	budget atomic.Int64
	// mu serialises mutation of the shard's table — Insert's
	// append-and-forget and Adapt's forget — so budget enforcement from
	// the two paths cannot interleave mid-shard.
	mu lockrank.Shard

	tbl   *table.Table
	strat amnesia.Strategy
	// hits counts queries that touched this shard since the last Adapt.
	// It is atomic so concurrent readers can record workload feedback
	// without the set's exclusive lock.
	hits   atomic.Int64
	column string
}

// Table exposes the shard's underlying table (read-only use).
func (p *Partition) Table() *table.Table { return p.tbl }

// Hits returns the query count since the last Adapt.
func (p *Partition) Hits() int64 { return p.hits.Load() }

// Budget returns the shard's active-tuple allowance. It is safe to read
// while Adapt rebalances concurrently.
func (p *Partition) Budget() int { return int(p.budget.Load()) }

// enforceBudgetLocked forgets the shard down to its current budget and
// returns the positions the strategy reports forgotten, valid until the
// shard's next enforcement; the caller must hold p.mu. Insert and Adapt
// both enforce through this one body so the two paths cannot drift.
func (p *Partition) enforceBudgetLocked() []int {
	if over := p.tbl.ActiveCount() - p.Budget(); over > 0 {
		return p.strat.Forget(p.tbl, over)
	}
	return nil
}

// enforceBudget is enforceBudgetLocked under the shard mutation lock.
func (p *Partition) enforceBudget() {
	p.mu.Lock()
	p.enforceBudgetLocked()
	p.mu.Unlock()
}

// Set is a partitioned single-column store with per-partition amnesia.
type Set struct {
	column string
	// domain and strategy echo the construction parameters so the
	// durability layer can log DDL and snapshot the set faithfully.
	domain   int64
	strategy string
	parts    []*Partition
	src      *xrand.Source
	// ex carries the set's parallelism knob, worker pool and touch flag
	// into every engine call over the shards; see SetParallelism.
	ex *engine.Exec
}

// New builds a Set over [0, domain) split into n equal-width partitions,
// each with the given strategy and an equal share of totalBudget.
func New(column string, domain int64, n int, strategy string, totalBudget int, src *xrand.Source) (*Set, error) {
	if n <= 0 {
		return nil, fmt.Errorf("partition: need at least one partition, got %d", n)
	}
	if domain <= 0 {
		return nil, fmt.Errorf("partition: domain %d must be positive", domain)
	}
	if totalBudget < n {
		return nil, fmt.Errorf("partition: budget %d below one tuple per partition", totalBudget)
	}
	s := &Set{column: column, domain: domain, strategy: strategy, src: src}
	width := (domain + int64(n) - 1) / int64(n)
	for i := 0; i < n; i++ {
		lo := int64(i) * width
		hi := lo + width
		if hi > domain {
			hi = domain
		}
		tbl := table.New(fmt.Sprintf("p%d", i), column)
		strat, err := amnesia.New(strategy, column, src.Split())
		if err != nil {
			return nil, err
		}
		p := &Partition{
			Lo: lo, Hi: hi,
			tbl:    tbl,
			strat:  strat,
			column: column,
		}
		p.budget.Store(int64(totalBudget / n))
		s.parts = append(s.parts, p)
	}
	s.ex = engine.New(s.parts[0].tbl)
	return s, nil
}

// Partitions returns the shards in value order.
func (s *Set) Partitions() []*Partition { return s.parts }

// Column returns the name of the set's single stored attribute.
func (s *Set) Column() string { return s.column }

// Domain returns the upper bound of the set's value domain [0, Domain).
func (s *Set) Domain() int64 { return s.domain }

// Strategy returns the per-shard amnesia strategy name the set was
// built with.
func (s *Set) Strategy() string { return s.strategy }

// SetParallelism sets the set's parallelism knob (0 auto, 1 one worker,
// n > 1 asks for n). Every query resolves it like a flat table's over
// the intersecting shards' rows together, its morsels drawn from one
// shard after another. Configure before serving concurrent queries.
func (s *Set) SetParallelism(n int) { s.ex.SetParallelism(n) }

// SetScheduler picks the worker pool the set's queries run on (nil, the
// default, is sched.Default()), so partitioned queries compete
// fair-share with everything else on the pool. Configure before serving
// concurrent queries, like SetParallelism.
func (s *Set) SetScheduler(p *sched.Pool) { s.ex.SetScheduler(p) }

// Epoch sums the shard tables' mutation epochs: any insert, forget,
// remember or vacuum anywhere in the set changes the sum, so it plays
// the same result-cache role as a flat table's epoch. Monotonic
// because every term is.
func (s *Set) Epoch() uint64 {
	var e uint64
	for _, p := range s.parts {
		e += p.tbl.Epoch()
	}
	return e
}

// intersecting returns the tables of the shards pred's bounding
// interval overlaps, in value order, recording a workload hit on each
// when hit is set.
func (s *Set) intersecting(pred expr.Expr, hit bool) []*table.Table {
	lo, hi, _ := pred.Bounds()
	var out []*table.Table
	for _, p := range s.parts {
		if p.Hi <= lo || p.Lo >= hi {
			continue
		}
		if hit {
			p.hits.Add(1)
		}
		out = append(out, p.tbl)
	}
	return out
}

// Insert routes a batch of values to their shards and enforces each
// affected shard's budget. Each shard's append-and-forget runs under the
// shard's mutation lock, so Insert may interleave with a concurrent
// Adapt.
func (s *Set) Insert(vals []int64) error { return s.InsertObserved(vals, nil) }

// InsertObserved is Insert with a mutation observer: after each shard's
// append-and-enforce commits, obs receives the shard index, the values
// appended there, and the positions the shard's strategy reports
// forgotten — unordered, valid until that shard is next mutated. The
// durability layer turns one call into one WAL record that replays
// bit-for-bit without re-running the strategy. Shards are visited in
// ascending order, so a seeded run logs the same bytes every time and
// a failing shard leaves exactly the lower ones committed. A nil obs
// makes it plain Insert.
func (s *Set) InsertObserved(vals []int64, obs func(shard int, appended []int64, forgotten []int)) error {
	byShard := make([][]int64, len(s.parts))
	for _, v := range vals {
		i, err := s.locateIdx(v)
		if err != nil {
			return err
		}
		byShard[i] = append(byShard[i], v)
	}
	for i, vs := range byShard {
		if len(vs) == 0 {
			continue
		}
		p := s.parts[i]
		p.mu.Lock()
		_, err := p.tbl.AppendSingleColumn(vs)
		if err == nil {
			forgotten := p.enforceBudgetLocked()
			if obs != nil {
				obs(i, vs, forgotten)
			}
		}
		p.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// ReplayShard applies a logged shard mutation: append the values, then
// forget exactly the logged positions — no routing, no budget
// enforcement, no strategy. Replaying a set's records in log order
// reproduces its tuple state bit-for-bit.
func (s *Set) ReplayShard(shard int, appended []int64, forgotten []int) error {
	if shard < 0 || shard >= len(s.parts) {
		return fmt.Errorf("partition: shard %d outside set of %d", shard, len(s.parts))
	}
	p := s.parts[shard]
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(appended) > 0 {
		if _, err := p.tbl.AppendSingleColumn(appended); err != nil {
			return err
		}
	}
	for _, pos := range forgotten {
		if pos < 0 || pos >= p.tbl.Len() {
			return fmt.Errorf("partition: replay position %d outside shard of %d tuples", pos, p.tbl.Len())
		}
		p.tbl.Forget(pos)
	}
	return nil
}

// SetShardBudget overwrites one shard's budget without enforcing it,
// for replaying logged Adapt outcomes.
func (s *Set) SetShardBudget(shard, budget int) error {
	if shard < 0 || shard >= len(s.parts) {
		return fmt.Errorf("partition: shard %d outside set of %d", shard, len(s.parts))
	}
	s.parts[shard].budget.Store(int64(budget))
	return nil
}

// AdvanceEpoch jumps the set's summed mutation epoch forward by delta
// (applied to the first shard; Epoch sums shard epochs). See
// table.AdvanceEpoch for why incarnations need disjoint epoch ranges.
func (s *Set) AdvanceEpoch(delta uint64) { s.parts[0].tbl.AdvanceEpoch(delta) }

// RestoredShard is one shard's snapshotted state handed to Restore.
type RestoredShard struct {
	Lo, Hi int64
	Budget int
	Table  *table.Table
}

// Restore rebuilds a Set from snapshotted shards: ranges, budgets and
// tuple stores come from the snapshot verbatim; fresh strategy
// instances are built from the recorded name (their RNG state is not
// durable — the WAL logs forget outcomes, so replay never consults
// them).
func Restore(column string, domain int64, strategy string, shards []RestoredShard, src *xrand.Source) (*Set, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("partition: restore with no shards")
	}
	s := &Set{column: column, domain: domain, strategy: strategy, src: src}
	for _, sh := range shards {
		strat, err := amnesia.New(strategy, column, src.Split())
		if err != nil {
			return nil, err
		}
		p := &Partition{
			Lo: sh.Lo, Hi: sh.Hi,
			tbl:    sh.Table,
			strat:  strat,
			column: column,
		}
		p.budget.Store(int64(sh.Budget))
		s.parts = append(s.parts, p)
	}
	s.ex = engine.New(s.parts[0].tbl)
	return s, nil
}

// locateIdx returns the index of the shard owning value v.
func (s *Set) locateIdx(v int64) (int, error) {
	i := sort.Search(len(s.parts), func(i int) bool { return v < s.parts[i].Hi })
	if i == len(s.parts) || v < s.parts[i].Lo {
		return 0, fmt.Errorf("partition: value %d outside domain", v)
	}
	return i, nil
}

// ScanChunkStream streams the active tuples matching pred as the
// engine's one scan pipeline over the shards the predicate's bounding
// interval intersects, in value order. Each shard is scanned morsel by
// morsel against its own active bitmap, index and stride hint, so its
// chunks are pooled and charged like a flat table's, their Rows are
// shard-local, and their touches land on the shard's table. par is the
// parallelism knob of the whole scan; limit, when positive, ends it
// after that many rows, touching exactly those. Each intersecting shard
// records one workload hit for Adapt. Cancelling ctx (or closing the
// stream) stops the scan at its next morsel.
func (s *Set) ScanChunkStream(ctx context.Context, pred expr.Expr, par, limit int) (*engine.ChunkStream, error) {
	ex := s.ex.WithLimit(limit)
	ex.SetParallelism(par)
	return ex.SelectPartsChunkStream(ctx, s.intersecting(pred, true), s.column, pred, engine.ScanActive)
}

// Select is SelectWhere over [lo, hi); it panics if lo > hi.
func (s *Set) Select(lo, hi int64) ([]int64, error) {
	return s.SelectWhere(expr.NewRange(lo, hi))
}

// SelectWhere returns matching active values across all shards pred can
// touch, recording per-shard workload hits for Adapt: the collected
// form of ScanChunkStream, flattened in value order. Like the flat
// engine's scans, it is safe for concurrent readers: hit counters are
// atomic and the scan touches access frequencies through each shard
// table's internal synchronisation.
func (s *Set) SelectWhere(pred expr.Expr) ([]int64, error) {
	//lint:ignore ctxflow Select is the set's one ctx-less entry (library callers and the frozen benchmark); request paths stream with their own ctx.
	cs, err := s.ScanChunkStream(context.Background(), pred, s.ex.Parallelism(), 0)
	if err != nil {
		return nil, err
	}
	chunks, err := cs.Collect()
	if err != nil {
		return nil, err
	}
	return engine.Flatten(chunks).Values, nil
}

// Aggregate folds the single attribute under pred across the
// intersecting shards as one engine barrier over their tables
// (engine.Exec.AggregateParts): exact at every parallelism, and
// engine.ErrNoRows when no shard has a qualifying row. Each
// intersecting shard records a workload hit, so SQL aggregates feed
// Adapt like selects do. A cancelled ctx stops the barrier at its next
// morsel and returns the cause.
func (s *Set) Aggregate(ctx context.Context, pred expr.Expr) (*engine.AggResult, error) {
	return s.ex.WithContext(ctx).AggregateParts(s.intersecting(pred, true), s.column, pred, engine.ScanActive)
}

// Precision computes the §2.3 metrics for pred across the shards its
// bounding interval touches (engine.Exec.PrecisionParts), cancellably
// like Aggregate. Metrics do not record workload hits, so measuring
// precision never perturbs Adapt.
func (s *Set) Precision(ctx context.Context, pred expr.Expr) (rf, mf int, pf float64, err error) {
	return s.ex.WithContext(ctx).PrecisionParts(s.intersecting(pred, false), s.column, pred)
}

// Stats sums tuple counts over all shards.
func (s *Set) Stats() table.Stats {
	var out table.Stats
	for _, p := range s.parts {
		st := p.tbl.Stats()
		out.Tuples += st.Tuples
		out.Active += st.Active
		out.Forgotten += st.Forgotten
		out.Batches += st.Batches
		out.IndexBytes += st.IndexBytes
	}
	return out
}

// Adapt reallocates the total budget proportionally to each shard's query
// hits since the last call (plus one smoothing hit each, so unqueried
// shards keep a trickle), then enforces the new budgets and resets the
// counters. This is the adaptive loop of §4.4: hot partitions grow, cold
// ones shrink, and precision follows the workload. Hits are snapshotted
// once so shares stay consistent under concurrent Selects, and each
// shard's forget runs under its mutation lock, so Adapt can run online,
// interleaved with Inserts.
func (s *Set) Adapt() { s.AdaptObserved(nil) }

// AdaptObserved is Adapt with a mutation observer: after each shard's
// budget is rewritten and enforced, obs receives the shard index, the
// new budget, and the positions the shard's strategy reports forgotten
// (as InsertObserved hands them over) — one WAL record's worth of
// replayable outcome per shard. A nil obs makes it plain Adapt.
func (s *Set) AdaptObserved(obs func(shard, budget int, forgotten []int)) {
	total := 0
	var weight int64
	snap := make([]int64, len(s.parts))
	for i, p := range s.parts {
		total += p.Budget()
		snap[i] = p.hits.Load() + 1
		weight += snap[i]
	}
	remaining := total
	for i, p := range s.parts {
		var share int
		if i == len(s.parts)-1 {
			share = remaining // avoid rounding loss
		} else {
			share = int(int64(total) * snap[i] / weight)
			if share < 1 {
				share = 1
			}
			if share > remaining-(len(s.parts)-1-i) {
				share = remaining - (len(s.parts) - 1 - i)
			}
		}
		remaining -= share
		p.budget.Store(int64(share))
		p.hits.Store(0)
		p.mu.Lock()
		forgotten := p.enforceBudgetLocked()
		if obs != nil {
			obs(i, share, forgotten)
		}
		p.mu.Unlock()
	}
}
