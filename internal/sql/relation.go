package sql

import (
	"context"
	"fmt"

	"amnesiadb/internal/engine"
	"amnesiadb/internal/engine/sched"
	"amnesiadb/internal/expr"
	"amnesiadb/internal/partition"
	"amnesiadb/internal/table"
)

// Relation is one queryable catalog entry. Flat tables and partitioned
// sets implement it (via TableRelation and PartitionRelation), so the
// executor — and through it the HTTP /query endpoint — routes to either
// kind transparently: the §4.4 serving loop over one unified catalog.
type Relation interface {
	// Kind reports the relation flavour: "table" or "partitioned".
	Kind() string
	// Columns lists the projectable column names in declaration order.
	Columns() []string
	// ScanChunkStream streams the active tuples of col matching pred
	// as chunks in deterministic order (insertion order for tables,
	// value order for partitioned sets) over a bounded channel, while
	// producers are still scanning; its Collect is the materialized
	// form. par is the engine's intra-query parallelism knob;
	// relations with their own stamped knob may ignore it. limit, when
	// positive, is an unordered LIMIT: a table's stream ends after that
	// many rows and touches exactly those (partitioned sets ignore it).
	// Cancelling ctx tears the producers down; the stream's ScanDone
	// reports when relation storage is no longer read.
	ScanChunkStream(ctx context.Context, col string, pred expr.Expr, par, limit int) (*engine.ChunkStream, error)
	// Clustered reports that scan chunks arrive as disjoint, ascending
	// value ranges (partitioned sets: one chunk per shard, in shard
	// order). Ascending ORDER BY exploits it to sort shard-locally and
	// stream shard by shard instead of sorting the whole fan-out.
	Clustered() bool
	// Gather materializes col at the given scan positions. Relations
	// without a global position space (partitioned sets) reject it;
	// the executor projects their scan values directly.
	Gather(col string, rows []int32, buf []int64) ([]int64, error)
	// Aggregate folds col under pred in one pass; engine.ErrNoRows
	// reports an empty qualifying set. A done ctx stops the pass at
	// its next morsel and returns the cause.
	Aggregate(ctx context.Context, col string, pred expr.Expr, par int) (*engine.AggResult, error)
	// Precision reports the §2.3 metrics for pred over col, cancellable
	// like Aggregate.
	Precision(ctx context.Context, col string, pred expr.Expr, par int) (rf, mf int, pf float64, err error)
	// Stats sums the relation's tuple counters.
	Stats() table.Stats
	// Epoch returns the relation's monotonic mutation epoch: it changes
	// whenever a mutation (insert, forget, remember, vacuum — anywhere
	// in the relation) could change a query result, and is stable while
	// the caller holds the relation's read lock. The result cache keys
	// on it.
	Epoch() uint64
}

// Catalog resolves relation names; the amnesiadb facade and the tests
// both satisfy it.
type Catalog interface {
	// Lookup returns the named relation or an error.
	Lookup(name string) (Relation, error)
}

// CatalogFunc adapts a function to Catalog.
type CatalogFunc func(name string) (Relation, error)

// Lookup implements Catalog.
func (f CatalogFunc) Lookup(name string) (Relation, error) { return f(name) }

// TableRelation adapts a flat table to the catalog. It is the only
// relation kind the join executor accepts, since hash joins need the
// table's global position space.
type TableRelation struct {
	tbl   *table.Table
	sched *sched.Pool
}

// NewTableRelation wraps t as a catalog Relation.
func NewTableRelation(t *table.Table) *TableRelation { return &TableRelation{tbl: t} }

// SetScheduler picks the worker pool the relation's scans run on; nil
// (the default) is sched.Default().
func (r *TableRelation) SetScheduler(p *sched.Pool) { r.sched = p }

// Kind implements Relation.
func (r *TableRelation) Kind() string { return "table" }

// Columns implements Relation.
func (r *TableRelation) Columns() []string { return r.tbl.Columns() }

// exec builds a touching executor at the given parallelism; scans feed
// the §3.2 access-frequency loop exactly like the facade's direct path.
func (r *TableRelation) exec(par int) *engine.Exec {
	ex := engine.New(r.tbl)
	ex.SetParallelism(par)
	ex.SetScheduler(r.sched)
	return ex
}

// ScanChunkStream implements Relation: the engine's pipelined morsel
// scan, touching access frequencies like every catalog scan.
func (r *TableRelation) ScanChunkStream(ctx context.Context, col string, pred expr.Expr, par, limit int) (*engine.ChunkStream, error) {
	return r.exec(par).WithLimit(limit).SelectChunkStream(ctx, col, pred, engine.ScanActive)
}

// Clustered implements Relation: table chunks are insertion-ordered,
// not value-ordered.
func (r *TableRelation) Clustered() bool { return false }

// Gather implements Relation.
func (r *TableRelation) Gather(col string, rows []int32, buf []int64) ([]int64, error) {
	c, err := r.tbl.Column(col)
	if err != nil {
		return nil, err
	}
	return c.Gather(rows, buf), nil
}

// Aggregate implements Relation.
func (r *TableRelation) Aggregate(ctx context.Context, col string, pred expr.Expr, par int) (*engine.AggResult, error) {
	return r.exec(par).WithContext(ctx).Aggregate(col, pred, engine.ScanActive)
}

// Precision implements Relation.
func (r *TableRelation) Precision(ctx context.Context, col string, pred expr.Expr, par int) (rf, mf int, pf float64, err error) {
	return r.exec(par).WithContext(ctx).Precision(col, pred)
}

// Stats implements Relation.
func (r *TableRelation) Stats() table.Stats { return r.tbl.Stats() }

// Epoch implements Relation.
func (r *TableRelation) Epoch() uint64 { return r.tbl.Epoch() }

// PartitionRelation adapts a partitioned set to the catalog: scans fan
// out per shard (chunks come back one per shard, in value order) and
// project by value, since shard-local positions mean nothing globally.
type PartitionRelation struct {
	set *partition.Set
}

// NewPartitionRelation wraps s as a catalog Relation.
func NewPartitionRelation(s *partition.Set) *PartitionRelation { return &PartitionRelation{set: s} }

// Kind implements Relation.
func (r *PartitionRelation) Kind() string { return "partitioned" }

// Columns implements Relation. A partitioned set stores one attribute.
func (r *PartitionRelation) Columns() []string { return []string{r.set.Column()} }

// checkCol validates the column reference against the single attribute.
func (r *PartitionRelation) checkCol(col string) error {
	if col != r.set.Column() {
		return fmt.Errorf("partitioned relation: unknown column %q", col)
	}
	return nil
}

// ScanChunkStream implements Relation: the set's pipelined shard
// fan-out, one chunk per shard in value order. The set's own fan-out
// knob governs concurrency, so par is ignored, and a shard's scan is a
// barrier that touches every row it qualifies, so limit is too.
func (r *PartitionRelation) ScanChunkStream(ctx context.Context, col string, pred expr.Expr, _, _ int) (*engine.ChunkStream, error) {
	if err := r.checkCol(col); err != nil {
		return nil, err
	}
	return r.set.ScanChunkStream(ctx, pred)
}

// Clustered implements Relation: shards are contiguous value ranges
// scanned in range order, so chunk values are disjoint and ascending
// across chunks.
func (r *PartitionRelation) Clustered() bool { return true }

// Gather implements Relation. Positions are shard-local, so partitioned
// relations cannot project by position; the executor never asks, since
// every projectable column is the scan column whose values the chunks
// already carry.
func (r *PartitionRelation) Gather(string, []int32, []int64) ([]int64, error) {
	return nil, fmt.Errorf("partitioned relation: no global positions to gather")
}

// Aggregate implements Relation.
func (r *PartitionRelation) Aggregate(ctx context.Context, col string, pred expr.Expr, _ int) (*engine.AggResult, error) {
	if err := r.checkCol(col); err != nil {
		return nil, err
	}
	return r.set.Aggregate(ctx, pred)
}

// Precision implements Relation.
func (r *PartitionRelation) Precision(ctx context.Context, col string, pred expr.Expr, _ int) (rf, mf int, pf float64, err error) {
	if err := r.checkCol(col); err != nil {
		return 0, 0, 0, err
	}
	return r.set.Precision(ctx, pred)
}

// Stats implements Relation.
func (r *PartitionRelation) Stats() table.Stats { return r.set.Stats() }

// Epoch implements Relation: the sum of the shard epochs, monotonic
// and mutation-sensitive like the flat-table one.
func (r *PartitionRelation) Epoch() uint64 { return r.set.Epoch() }
