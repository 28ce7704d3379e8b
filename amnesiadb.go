// Package amnesiadb is a columnar embedded database with built-in,
// bounded-storage forgetting ("amnesia"), reproducing the system of
// Kersten & Sidirourgos, "A Database System with Amnesia" (CIDR 2017).
//
// A Table holds append-only int64 columns. A Policy gives the table a
// fixed active-tuple budget (and optionally a hard retention window) and
// an amnesia strategy; every insert beyond the budget makes the table
// semi-autonomously forget tuples, chosen by the strategy (fifo, uniform,
// ante, rot, area, areav, decay, frequent, pairwise, distaligned).
// Queries normally see only active tuples; the forgotten
// ones can be scanned explicitly, demoted to a simulated cold tier,
// collapsed into aggregate summaries, or physically vacuumed away — the
// four fates of forgotten data the paper enumerates.
//
// Execution is vectorized in the MonetDB lineage the paper comes from:
// queries run batch-at-a-time over selection vectors (fixed-size position
// + value buffers filled by zone-map-pruned column scan kernels), with
// predicates applied by compacting kernels and aggregates folded in one
// fused pass. Reads run in parallel twice over: across queries —
// Select, Aggregate, GroupBy, Precision and SQL queries take a shared
// lock, while inserts, policy enforcement and maintenance are exclusive
// — and within one query, where large scans split into block-range
// morsels executed by GOMAXPROCS workers and merged back in insertion
// order (see Options.Parallelism). The access-frequency
// feedback that query-based amnesia (§3.2) needs is accumulated per
// query and flushed as one synchronized batch, so it survives read
// concurrency without serialising scans.
//
// SQL serves the whole catalog through one Relation abstraction: flat
// tables and partitioned tables (CreatePartitionedTable) are both
// first-class entries, so DB.Query — and the HTTP /query endpoint built
// on it — routes to either kind transparently, fanning partitioned
// scans out per shard. The dialect covers projection, aggregates,
// WHERE/ORDER BY/LIMIT and two-table equi-joins with qualified columns
// (SELECT a.v, b.v FROM a JOIN b ON a.k = b.k), the join riding the
// same morsel-parallel hash join as DB.Join. Results are pipelined:
// DB.QueryStream's producers push per-morsel/per-shard batches into a
// bounded channel while they are still scanning, projection and the
// server's serialization consume concurrently (first chunk after the
// first morsel, backpressure from slow consumers, request-context
// cancellation tearing producers down mid-scan), and DB.Query is the
// Collect form.
//
// A minimal session:
//
//	db := amnesiadb.Open(amnesiadb.Options{Seed: 42})
//	t, _ := db.CreateTable("readings", "value")
//	_ = t.SetPolicy(amnesiadb.Policy{Strategy: "rot", Budget: 10000})
//	_ = t.InsertColumn("value", data)
//	res, _ := t.Select("value", amnesiadb.Range(100, 200))
package amnesiadb

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"amnesiadb/internal/amnesia"
	"amnesiadb/internal/coldstore"
	"amnesiadb/internal/durability"
	"amnesiadb/internal/engine"
	"amnesiadb/internal/engine/governor"
	"amnesiadb/internal/engine/sched"
	"amnesiadb/internal/expr"
	"amnesiadb/internal/lockrank"
	"amnesiadb/internal/snapshot"
	"amnesiadb/internal/sql"
	"amnesiadb/internal/summary"
	"amnesiadb/internal/table"
	"amnesiadb/internal/wal"
	"amnesiadb/internal/xrand"
)

// Options configures a DB.
type Options struct {
	// Seed drives every stochastic amnesia decision; runs with equal
	// seeds and equal operation sequences are bit-reproducible. A zero
	// seed is valid and distinct from, say, 1.
	Seed uint64
	// Parallelism is the intra-query parallelism knob applied to every
	// table's executor: 0 (default) auto-parallelises large scans
	// across GOMAXPROCS morsel workers and keeps small scans serial;
	// 1 forces all scans serial; n > 1 forces n workers. Results are
	// identical at every setting — rows stay in insertion order and
	// aggregates are exact — only the core count changes. Forced counts
	// above the worker pool's width are clamped to it.
	Parallelism int
	// PoolSize selects the worker pool that executes every query's
	// morsels — the engine's only dispatcher. 0 (default, and what a
	// negative value is clamped to) uses the process-global pool of
	// GOMAXPROCS workers shared by every DB in the process, so total
	// engine concurrency stays bounded by the core count no matter how
	// many queries run at once; n > 0 gives this DB a dedicated pool of
	// n workers (Close releases it). Results are identical at every
	// setting.
	PoolSize int
	// CacheEntries bounds the result cache: up to this many small,
	// fully-materialized results (at most one stream chunk of rows
	// each) are kept, keyed by normalized SQL text and the mutation
	// epochs of every relation the query read, so any insert, forget,
	// remember or vacuum invalidates exactly the answers it could have
	// changed. Zero disables result caching. Cached hits are served
	// without scanning — and therefore without the §3.2 access-
	// frequency touches a live scan feeds back; workloads tuning
	// "frequent"-style amnesia strategies should keep this off or
	// accept that only cache-missing queries train the counters. The
	// parsed-plan cache is always on and unaffected by this knob.
	CacheEntries int
	// Fsync selects the WAL commit discipline for durable databases
	// (OpenDir): "always" and "group" (the default) sync every batch —
	// whatever queued while the previous sync was in flight — before
	// acknowledging it; "off" leaves it to the OS. Ignored by Open.
	Fsync string
	// SegmentBytes is the WAL segment size past which the background
	// snapshotter rotates and truncates; zero means 64 MiB. Ignored by
	// Open.
	SegmentBytes int64
	// MaxQueryBytes, when positive, is the per-query governed-memory
	// budget: pooled scan chunks in flight, join build tables and sort
	// runs all charge the query's quota, and a query that would exceed
	// the budget is cancelled alone with ErrResourceExhausted (HTTP 413
	// through the server) at its next morsel boundary. Zero (default)
	// disables per-query budgets; the governor still meters usage for
	// /healthz and for the process high-water mark: half of GOMEMLIMIT,
	// past which it sheds the most expensive in-flight query (no
	// GOMEMLIMIT, no shedding).
	MaxQueryBytes int64
	// MaxQueryDuration, when positive, is the per-query deadline:
	// queries exceeding it are cancelled with ErrQueryDeadline (HTTP
	// 408 through the server), enforced both through context
	// cancellation and at morsel boundaries so teardown is prompt.
	// Zero disables deadlines.
	MaxQueryDuration time.Duration
	// StallDetach is how long a stalled consumer of a streaming
	// value-only select may hold the producers: once the pipeline's
	// send has blocked this long, the rest of the stream goes to a heap
	// buffer, so producers finish and relation read locks release while
	// the tail is served from the buffer, byte-identically. Zero
	// (default) uses DefaultStallDetach; negative disables detaching.
	StallDetach time.Duration
}

// DefaultStallDetach is the stall threshold applied when
// Options.StallDetach is zero: long enough that a merely slow consumer
// (network hiccup, scheduling) never triggers a spill, short enough
// that a stalled streaming client cannot pin relation read locks — and
// with them every writer — for more than about a second.
const DefaultStallDetach = time.Second

// ErrResourceExhausted is reported by queries cancelled by resource
// governance: their Options.MaxQueryBytes budget ran out, or the
// process-wide high-water mark shed them. The serving layer maps it to
// HTTP 413.
var ErrResourceExhausted = governor.ErrResourceExhausted

// ErrQueryDeadline is reported by queries cancelled by the per-query
// deadline (Options.MaxQueryDuration). The serving layer maps it to
// HTTP 408.
var ErrQueryDeadline = governor.ErrDeadlineExceeded

// planCacheSize bounds the always-on parsed-plan LRU. Plans are tiny
// (an AST, no data), so a few hundred hot statements cost nothing and
// skip the lexer/parser on every serving-path query.
const planCacheSize = 256

// DB is a collection of tables sharing one deterministic random stream.
// DB and Table methods are safe for concurrent use. Reads and writes are
// split: inserts, policy changes and maintenance take a table's exclusive
// lock, while queries run under a shared read lock, so concurrent
// ScanActive readers proceed in parallel. Queries still update access
// frequencies — the strategy-relevant feedback of §3.2 — under the
// table's 64 striped count locks, one stripe per 1,024-row block held
// at a time: selects flush the positions they returned in one call per
// query, and aggregates touch each block while they fold it, so readers
// contend only on the block they are counting.
type DB struct {
	mu lockrank.Catalog
	// rels is the relation catalog: flat and partitioned tables in one
	// namespace, entered only through register.
	rels map[string]relation
	// par is Options.Parallelism, stamped onto every executor built for
	// this database (tables, SQL runs, partition shards).
	par int
	// pool is the morsel scheduler stamped onto every executor, never
	// nil. ownPool marks a dedicated (PoolSize > 0) pool that Close
	// must shut down.
	pool    *sched.Pool
	ownPool bool
	// plans caches parsed statements by normalized SQL; results caches
	// small materialized answers by (normalized SQL, relation epochs).
	// results is nil when Options.CacheEntries is zero.
	plans   *sql.PlanCache
	results *sql.ResultCache

	// gov is the process-side resource ledger; every non-cached query
	// runs under one of its quotas. maxQueryBytes/maxQueryDur/stall are
	// the resolved governance knobs from Options.
	gov           *governor.Governor
	maxQueryBytes int64
	maxQueryDur   time.Duration
	stallDetach   time.Duration

	// dur is the durability wiring attached by OpenDir; nil for
	// in-memory databases, which skip WAL logging entirely.
	dur *durableState
	// incarnation counts relation registrations; each relation's epoch
	// is advanced into the range incarnation<<32 at creation or
	// restore, so a same-named successor of a dropped table can never
	// reproduce a (query, epochs) result-cache signature.
	incarnation atomic.Uint64

	// srcMu guards src: strategy construction splits the shared seed
	// stream, and SetPolicy runs under its table's lock only, so two
	// tables installing policies concurrently must not race on the
	// source. srcMu is a leaf lock — never acquire others while holding
	// it.
	srcMu sync.Mutex
	src   *xrand.Source
}

// splitSrc derives a child random stream from the database seed. The
// draw order over the life of the process determines the stream, so
// single-threaded runs with equal seeds stay bit-reproducible.
func (db *DB) splitSrc() *xrand.Source {
	db.srcMu.Lock()
	defer db.srcMu.Unlock()
	return db.src.Split()
}

// Open creates an empty in-memory database.
func Open(opts Options) *DB {
	par := opts.Parallelism
	if par < 0 {
		par = 0
	}
	stall := opts.StallDetach
	if stall == 0 {
		stall = DefaultStallDetach
	}
	db := &DB{
		src:           xrand.New(opts.Seed),
		rels:          make(map[string]relation),
		par:           par,
		plans:         sql.NewPlanCache(planCacheSize),
		results:       sql.NewResultCache(opts.CacheEntries),
		gov:           governor.New(governor.HighWaterFromGOMEMLIMIT()),
		maxQueryBytes: max(opts.MaxQueryBytes, 0),
		maxQueryDur:   max(opts.MaxQueryDuration, 0),
		stallDetach:   max(stall, 0),
	}
	if opts.PoolSize > 0 {
		db.pool = sched.New(opts.PoolSize)
		db.ownPool = true
	} else {
		db.pool = sched.Default()
	}
	return db
}

// Close releases resources the database owns: the durability log (if
// OpenDir attached one) is flushed, fsynced and closed — deliberately
// without a final snapshot, so reopening replays the WAL tail exactly
// like crash recovery — and a dedicated worker pool
// (Options.PoolSize > 0) is shut down after in-flight steps drain. The
// process-global shared pool is never closed. Close is idempotent;
// queries must not be started after it.
func (db *DB) Close() {
	db.closeDurable()
	if db.ownPool {
		db.pool.Close()
	}
}

// PoolStats is a point-in-time snapshot of the worker pool serving this
// database's queries; the /healthz endpoint reports it.
type PoolStats struct {
	// Workers is the pool width — the hard bound on concurrently
	// executing morsel steps.
	Workers int `json:"workers"`
	// Running counts steps executing right now.
	Running int `json:"running"`
	// Queries counts queries currently attached to the pool.
	Queries int `json:"queries"`
}

// PoolStats snapshots the worker pool.
func (db *DB) PoolStats() PoolStats {
	s := db.pool.Stats()
	return PoolStats{Workers: s.Workers, Running: s.Running, Queries: s.Queries}
}

// CacheStats reports plan- and result-cache occupancy and cumulative
// hit/miss counters (result-cache stale evictions count as misses).
type CacheStats struct {
	PlanEntries   int    `json:"plan_entries"`
	PlanHits      uint64 `json:"plan_hits"`
	PlanMisses    uint64 `json:"plan_misses"`
	ResultEntries int    `json:"result_entries"`
	ResultHits    uint64 `json:"result_hits"`
	ResultMisses  uint64 `json:"result_misses"`
}

// CacheStats snapshots both query caches.
func (db *DB) CacheStats() CacheStats {
	ph, pm := db.plans.Counters()
	rh, rm := db.results.Counters()
	return CacheStats{
		PlanEntries: db.plans.Len(), PlanHits: ph, PlanMisses: pm,
		ResultEntries: db.results.Len(), ResultHits: rh, ResultMisses: rm,
	}
}

// GovernorStats snapshots the resource governor's live ledger: queries
// with registered quotas, pooled bytes currently charged, the process
// peak, the configured high-water mark (0 when pressure shedding is
// off) and the cumulative count of queries shed under pressure.
func (db *DB) GovernorStats() governor.Stats { return db.gov.Stats() }

// CreateTable adds a table with the given columns. Every column stores
// int64 values. It fails if the name is taken.
func (db *DB) CreateTable(name string, columns ...string) (*Table, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("amnesiadb: table %q needs at least one column", name)
	}
	t := &Table{handle: handle{db: db, name: name}, tbl: table.New(name, columns...)}
	if err := db.register(t, wal.RecordCreate(name, columns)); err != nil {
		return nil, err
	}
	return t, nil
}

// relation is one catalog entry: a flat Table or a PartitionedTable.
// Both kinds share one namespace and one handle; they differ in how
// they attach to the database and how they are snapshotted.
type relation interface {
	base() *handle
	// attach stamps the database's executor settings, the SQL view and
	// the fresh epoch incarnation inc; register calls it once.
	attach(inc uint64)
	// appendTo adds the relation's section to a snapshot catalog; the
	// caller holds the full barrier (lockCatalog).
	appendTo(cat *snapshot.Catalog)
	// shards is the partition count; zero for flat tables.
	shards() int
}

// handle is what every relation shares: its lock, its database, its
// catalog name, its drop latch and its SQL view. Queries take mu as
// readers; mutation, and anything that reads access frequencies, takes
// it exclusively through exclusive or mutate.
type handle struct {
	mu   lockrank.Relation
	db   *DB
	name string
	// rel is the relation's SQL view, built once by attach.
	rel sql.Relation
	// dropped (guarded by mu) marks a handle whose relation left the
	// catalog: DropTable sets it under the exclusive lock before
	// logging the drop record, so mutations through a stale handle fail
	// instead of appending WAL records after their relation's drop.
	dropped bool
}

func (h *handle) base() *handle { return h }

// Name returns the relation's catalog name.
func (h *handle) Name() string { return h.name }

// liveLocked fails mutation through a handle that outlived its
// relation's drop; callers hold h.mu exclusively. The check must run
// before any WAL record is enqueued, or replay would encounter a
// mutation on a dropped relation and reject the log.
func (h *handle) liveLocked() error {
	if h.dropped {
		return fmt.Errorf("amnesiadb: %w %q (dropped)", ErrUnknownTable, h.name)
	}
	return nil
}

// exclusive runs fn under h's exclusive lock once the handle is known
// live.
func (h *handle) exclusive(fn func() error) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.liveLocked(); err != nil {
		return err
	}
	return fn()
}

// mutate is exclusive for logged mutations: it refuses a read-only
// database, runs fn — which applies the change and returns its WAL
// record (nil for none) — enqueues that record under the lock, so
// per-relation log order is lock order, and awaits it after unlocking.
// A record fn returns beside an error is logged and awaited too: the
// change it describes was applied. fn's error wins over the wait's.
func (h *handle) mutate(fn func() ([]byte, error)) error {
	if err := h.db.writable(); err != nil {
		return err
	}
	var p *durability.Pending
	err := h.exclusive(func() error {
		rec, err := fn()
		p = h.db.logRecord(rec)
		return err
	})
	if werr := h.db.commitWait(p); err == nil {
		err = werr
	}
	return err
}

// register is the one way a relation enters the catalog — create, load
// and restore alike. It refuses a read-only database and a taken name,
// attaches r under a fresh epoch incarnation, inserts it and enqueues
// rec (nil when the caller persists the relation otherwise), then
// awaits the record once the catalog lock is released.
func (db *DB) register(r relation, rec []byte) error {
	if err := db.writable(); err != nil {
		return err
	}
	h := r.base()
	db.mu.Lock()
	if _, dup := db.rels[h.name]; dup {
		db.mu.Unlock()
		return fmt.Errorf("amnesiadb: table %q already exists", h.name)
	}
	h.mu.SetName(h.name)
	r.attach(db.nextIncarnation())
	db.rels[h.name] = r
	p := db.logRecord(rec)
	db.mu.Unlock()
	return db.commitWait(p)
}

// lookup resolves name to a catalog entry of kind T, or false when the
// name is missing or held by the other kind.
func lookup[T relation](db *DB, name string) (T, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok := db.rels[name].(T)
	return r, ok
}

// errUnknown reports a name the catalog does not hold.
func errUnknown(name string) error { return fmt.Errorf("amnesiadb: %w %q", ErrUnknownTable, name) }

// Table returns the named flat table, or false. Partitioned tables live
// beside flat ones in the catalog; fetch them with Partitioned.
func (db *DB) Table(name string) (*Table, bool) { return lookup[*Table](db, name) }

// Partitioned returns the named partitioned table, or false.
func (db *DB) Partitioned(name string) (*PartitionedTable, bool) {
	return lookup[*PartitionedTable](db, name)
}

// RelationInfo describes one catalog entry for monitoring surfaces (the
// HTTP /tables endpoint serves it directly).
type RelationInfo struct {
	Name string `json:"name"`
	// Kind is "table" or "partitioned".
	Kind string `json:"kind"`
	// Shards is the partition count; zero for flat tables.
	Shards int `json:"shards,omitempty"`
}

// Relations lists the catalog — both kinds — in lexical name order.
func (db *DB) Relations() []RelationInfo {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]RelationInfo, 0, len(db.rels))
	for n, r := range db.rels {
		out = append(out, RelationInfo{Name: n, Kind: r.base().rel.Kind(), Shards: r.shards()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Strategies lists the amnesia strategy names accepted in a Policy.
func Strategies() []string { return amnesia.Names() }

// QueryResult is the tabular output of DB.Query.
type QueryResult struct {
	// Columns are the output headers.
	Columns []string
	// Rows holds one value slice per row, aligned with Columns.
	Rows [][]float64
	// Ints flags columns whose values are exact integers (everything
	// except AVG).
	Ints []bool
}

// ErrUnknownTable is wrapped by Query errors naming a table the catalog
// does not hold, so callers (notably the HTTP server) can map it to a
// not-found rather than a bad-request condition.
var ErrUnknownTable = errors.New("unknown table")

// Query parses and executes one SQL SELECT over the database's catalog —
// flat and partitioned tables alike — seeing active tuples only. The
// supported dialect is the paper's §2.2 subspace: projection or a single
// aggregate (COUNT/SUM/AVG/MIN/MAX), WHERE clauses comparing one integer
// attribute, AND/OR/NOT, ORDER BY, LIMIT, and two-table equi-joins
// (SELECT a.v, b.v FROM a JOIN b ON a.k = b.k) riding the
// morsel-parallel hash join. Errors wrap ErrUnknownTable or
// sql.ErrInvalid so callers can tell a missing table from malformed SQL.
// Query materializes the full result; QueryStream is the chunked form
// the HTTP server serializes incrementally.
func (db *DB) Query(q string) (*QueryResult, error) {
	qs, err := db.QueryStream(q)
	if err != nil {
		return nil, err
	}
	defer qs.Close()
	// Drain through Next rather than the stream's Collect so the
	// materialized path feeds (and is fed by) the result cache exactly
	// like the streaming one.
	var rows [][]float64
	for {
		chunk, err := qs.Next()
		if err != nil {
			return nil, err
		}
		if chunk == nil {
			break
		}
		rows = append(rows, chunk...)
	}
	return &QueryResult{Columns: qs.Columns, Rows: rows, Ints: qs.Ints}, nil
}

// QueryStream is a query result delivered as a pipeline: the engine's
// morsel workers (flat tables and partitioned shards alike) push batches
// into a bounded channel while they are still scanning, and NextChunk
// projects whatever has arrived into a column-major chunk — the first
// chunk is ready after the first morsel, not the full scan. A chunk is
// valid until the next call; Next is the row adapter over NextChunk,
// handing out rows the caller owns. Streams whose later chunks never
// read table storage again — value-only projections, including every
// partitioned-table select, and aggregates — release their relations'
// read locks as soon as the scan side completes, even while the
// consumer is still draining. Note the pipeline trade: a consumer
// slower than the scan delays that completion through backpressure
// (that is what bounds memory), so with a large backlog the lock hold
// tracks the slower of scan and consumer — Close, context
// cancellation, or the server's -write-timeout bound the worst case,
// and small backlogs (selective queries) fit the pipeline's buffers
// and always release at scan speed.
// Streams that project lazily from table columns (multi-column selects,
// joins) hold their read locks until Close, which Next and NextChunk
// call automatically once the stream drains or fails; callers abandoning a
// stream early must Close it themselves — Close also cancels any
// still-running producers. Single-consumer, not safe for concurrent
// use.
type QueryStream struct {
	// Columns are the output headers; Ints flags exact-integer columns.
	Columns []string
	Ints    []bool

	st *sql.ResultStream

	// release drops the read locks; releaseOnce runs it exactly once and
	// makes every other caller wait until it has returned.
	release     func()
	releaseOnce sync.Once

	// finish runs once when the stream ends (Close, which Next calls on
	// drain or error): it unregisters the query's resource quota,
	// sweeping any residual charge from an abandoned stream out of the
	// process ledger. mu guards it.
	mu     sync.Mutex
	finish func()

	// cached marks a stream replaying a result-cache hit; no relation
	// storage is read and no locks are held.
	cached bool
	// The recorder tees drained chunks into the result cache: their
	// columns accumulate in rec (a copy — the stream reuses its chunk
	// arrays) until the stream drains cleanly, then commit under the
	// epoch signature captured at query start. An error, or growth past
	// the cacheable bound, drops the recording. Single-consumer like the
	// stream itself, so these fields need no lock.
	cache     *sql.ResultCache
	cacheKey  string
	cacheSig  string
	recording bool
	rec       *sql.Chunk
}

// Cached reports whether this stream is served from the result cache
// rather than a live scan. The HTTP layer surfaces it as a response
// header.
func (qs *QueryStream) Cached() bool { return qs.cached }

// Pipelined reports whether producers may still be scanning while the
// stream is consumed, so a consumer that flushes after each chunk gets
// early rows to its client. A stream that is not pipelined — a cache
// hit, an aggregate, a sorted or joined result, LIMIT 0 — has every row
// computed before its first Next, and flushing between its chunks buys
// no first-byte latency.
func (qs *QueryStream) Pipelined() bool { return qs.st.ScanDone() != nil }

// NextChunk returns the next column-major chunk of the result, nil
// once the stream is drained. The chunk is valid until the next call
// and must not be modified.
func (qs *QueryStream) NextChunk() (*sql.Chunk, error) {
	c, err := qs.st.NextChunk()
	if qs.recording {
		switch {
		case err != nil:
			qs.recording, qs.rec = false, nil
		case c == nil:
			qs.cache.Put(qs.cacheKey, qs.cacheSig, &sql.CachedResult{
				Columns: qs.Columns, Ints: qs.Ints, Chunk: qs.rec,
			})
			qs.recording, qs.rec = false, nil
		case qs.rec.Len+c.Len > sql.MaxCachedResultRows:
			qs.recording, qs.rec = false, nil
		default:
			qs.rec.Append(c)
		}
	}
	if err != nil || c == nil {
		qs.Close()
	}
	return c, err
}

// Next is the row adapter over NextChunk: it returns the next chunk as
// rows the caller owns, nil once the stream is drained.
func (qs *QueryStream) Next() ([][]float64, error) {
	c, err := qs.NextChunk()
	if c == nil {
		return nil, err
	}
	return c.Rows(), nil
}

// Close cancels any still-running producers and releases the relation
// locks the stream holds (waiting, when necessary, for in-flight morsel
// workers to exit first — storage must not be read after the locks go).
// It is idempotent and safe to call concurrently with the scan-side
// release.
func (qs *QueryStream) Close() {
	qs.st.Close()
	if sd := qs.st.ScanDone(); sd != nil {
		<-sd
	}
	qs.releaseLocks()
	qs.finishQuota()
}

// finishQuota runs the stream-end hook exactly once; it must not run
// before the producers have exited (pooled chunks still in flight carry
// charges the quota's removal would otherwise sweep early), so only
// Close — which waits on ScanDone — calls it.
func (qs *QueryStream) finishQuota() {
	qs.mu.Lock()
	finish := qs.finish
	qs.finish = nil
	qs.mu.Unlock()
	if finish != nil {
		finish()
	}
}

// releaseLocks drops the stream's read locks exactly once. Both Close
// and the scan-completion watcher funnel through here, and neither
// returns before the locks are gone: a Close that raced the watcher
// must not hand its caller back while the watcher is still mid-release.
func (qs *QueryStream) releaseLocks() {
	qs.releaseOnce.Do(func() {
		if qs.release != nil {
			qs.release()
		}
	})
}

// QueryStream parses, validates and starts one SQL SELECT, returning the
// chunked result stream; see QueryStreamCtx.
func (db *DB) QueryStream(q string) (*QueryStream, error) {
	//lint:ignore ctxflow QueryStream is the public ctx-less compat entry; request paths use QueryStreamCtx.
	return db.QueryStreamCtx(context.Background(), q)
}

// QueryStreamCtx parses, validates and starts one SQL SELECT, returning
// the pipelined result stream. Every relation the query references is
// read-locked — in sorted name order, the same order Join takes its
// pair, so the two paths cannot deadlock around a pending writer — and
// stays locked until the stream no longer reads storage (scan-side
// completion for value-only streams, Close otherwise), so concurrent
// queries stream in parallel while inserts wait only as long as the
// scan itself. Cancelling ctx tears down the query's morsel workers
// mid-scan: a disconnected HTTP client stops consuming cores within one
// morsel.
func (db *DB) QueryStreamCtx(ctx context.Context, q string) (*QueryStream, error) {
	// Normalize once and key both caches on the canonical text; the
	// grammar has no literals where whitespace matters, so the
	// normalized form parses identically.
	norm := sql.NormalizeSQL(q)
	pq, err := db.plans.Parse(norm)
	if err != nil {
		return nil, err
	}
	names := pq.Tables()
	sort.Strings(names)
	// Resolve every relation under one catalog read-lock, then take the
	// relation locks in name order with the catalog lock already
	// released. Re-entering db.mu while holding a relation lock would
	// invert the hierarchy (docs/LOCKING.md): lockCatalog holds db.mu
	// exclusively while it waits for each relation in the same name
	// order, so a query holding table A's read lock and waiting on
	// db.mu deadlocks against a snapshot holding db.mu and waiting on A.
	hs := make([]*handle, len(names))
	db.mu.RLock()
	for i, n := range names {
		r, ok := db.rels[n]
		if !ok {
			db.mu.RUnlock()
			return nil, errUnknown(n)
		}
		hs[i] = r.base()
	}
	db.mu.RUnlock()
	// The drain watcher may release these locks on another goroutine,
	// so the release names this one as their owner (docs/LOCKING.md).
	owner := lockrank.Self()
	for _, h := range hs {
		h.mu.RLock()
	}
	release := func() {
		for _, h := range hs {
			h.mu.RUnlockFor(owner)
		}
	}
	// The epoch signature is read under the relations' read locks, so
	// it identifies exactly the data this query will scan: a cached
	// entry at the same signature is byte-identical to what a live run
	// would return, and any mutation since makes the lookup miss (and
	// evict the stale entry).
	var sig string
	if db.results != nil {
		sb := make([]byte, 0, 64)
		for _, h := range hs {
			sb = append(sb, h.name...)
			sb = append(sb, ':')
			sb = strconv.AppendUint(sb, h.rel.Epoch(), 10)
			sb = append(sb, ';')
		}
		sig = string(sb)
		if res, ok := db.results.Get(norm, sig); ok {
			release()
			st := sql.NewCachedStream(res)
			return &QueryStream{Columns: st.Columns, Ints: st.Ints, st: st, cached: true}, nil
		}
	}
	// Each live query gets its own resource quota: pooled batches, join
	// build tables and sort runs charge it, the budget (if any) bounds
	// it, and the process-wide governor can kill it under memory
	// pressure. The quota is removed — sweeping any residual charge —
	// when the stream ends.
	quota := db.gov.NewQuota(db.maxQueryBytes)
	st, err := sql.ExecStream(sql.CatalogFunc(func(n string) (sql.Relation, error) {
		for _, h := range hs {
			if h.name == n {
				return h.rel, nil
			}
		}
		return nil, errUnknown(n)
	}), pq, sql.Opts{
		Parallelism: db.par,
		Ctx:         ctx,
		Sched:       db.pool,
		Quota:       quota,
		MaxDuration: db.maxQueryDur,
		StallDetach: db.stallDetach,
	})
	if err != nil {
		db.gov.Remove(quota)
		release()
		return nil, err
	}
	qs := &QueryStream{Columns: st.Columns, Ints: st.Ints, st: st, release: release,
		finish: func() { db.gov.Remove(quota) }}
	if db.results != nil {
		qs.cache, qs.cacheKey, qs.cacheSig, qs.recording, qs.rec = db.results, norm, sig, true, &sql.Chunk{}
	}
	switch {
	case st.Detached:
		// The stream owns every buffer its chunks will be built from;
		// nothing reads the relations again, so the locks can go now.
		qs.releaseLocks()
	case st.EarlyRelease() && st.ScanDone() != nil:
		// Value-only pipeline: producers are still scanning, but the
		// moment they finish (including after a cancellation) the
		// stream only replays buffers it owns — release the locks right
		// then, not at consumer completion. (Backpressure means a
		// consumer slower than the scan still delays scan completion
		// for backlogs beyond the pipeline's buffers; see the
		// QueryStream doc.) The watcher always fires: ScanDone closes
		// on every pipeline exit path.
		sd := st.ScanDone()
		go func() {
			<-sd
			qs.releaseLocks()
		}()
	}
	return qs, nil
}

// Policy binds an amnesia strategy and a storage budget to a table.
type Policy struct {
	// Strategy names the forgetting algorithm; see Strategies.
	Strategy string
	// Budget is the maximum number of active tuples. Zero disables
	// amnesia (the table never forgets).
	Budget int
	// Column is the attribute consulted by value-aware strategies
	// (pairwise, distaligned). Empty selects the table's first column.
	Column string
	// MaxAgeBatches, when positive, is a hard retention window: every
	// tuple older than this many insert batches is forgotten on the next
	// enforcement, regardless of budget headroom — the paper's
	// "legally defined time frame". Zero disables age-based forgetting.
	MaxAgeBatches int
}

// Table is a columnar table with optional amnesia. Obtain via
// DB.CreateTable. Queries take its lock as readers; structural mutation
// and anything that reads access frequencies (policy enforcement,
// snapshots) takes it exclusively.
type Table struct {
	handle
	tbl    *table.Table
	ex     *engine.Exec
	policy Policy
	strat  amnesia.Strategy
	// expired buffers the positions a retention window forgets.
	expired []int
	cold    *coldstore.Store
	book    *summary.Book
}

func (t *Table) attach(inc uint64) {
	t.ex = engine.New(t.tbl)
	t.ex.SetParallelism(t.db.par)
	t.ex.SetScheduler(t.db.pool)
	tr := sql.NewTableRelation(t.tbl)
	tr.SetScheduler(t.db.pool)
	t.rel = tr
	t.tbl.AdvanceEpoch(inc)
}

func (t *Table) appendTo(cat *snapshot.Catalog) {
	cat.Tables = append(cat.Tables, snapshot.TableEntry{Table: t.tbl, Policy: snapshot.Policy(t.policy)})
}

func (t *Table) shards() int { return 0 }

// Columns returns the column names in declaration order.
func (t *Table) Columns() []string { return t.tbl.Columns() }

// SetPolicy installs (or with a zero Policy removes) the amnesia policy.
func (t *Table) SetPolicy(p Policy) error {
	return t.mutate(func() ([]byte, error) {
		if err := t.applyPolicy(p); err != nil {
			return nil, err
		}
		return wal.RecordPolicy(t.name, wal.PolicySpec(t.policy)), nil
	})
}

// applyPolicy installs p. SetPolicy logs it afterwards; replay and
// restore only apply it. Callers hold t.mu exclusively or own t alone.
func (t *Table) applyPolicy(p Policy) error {
	if p.Budget < 0 {
		return fmt.Errorf("amnesiadb: negative budget %d", p.Budget)
	}
	if p.MaxAgeBatches < 0 {
		return fmt.Errorf("amnesiadb: negative MaxAgeBatches %d", p.MaxAgeBatches)
	}
	switch {
	case p.Budget == 0 && p.MaxAgeBatches == 0:
		t.policy, t.strat = Policy{}, nil
	case p.Budget == 0:
		// Pure retention-window policy: no budget strategy needed.
		t.policy, t.strat = p, nil
	default:
		col := p.Column
		if col == "" {
			col = t.tbl.Columns()[0]
		}
		strat, err := amnesia.New(p.Strategy, col, t.db.splitSrc())
		if err != nil {
			return err
		}
		t.policy, t.strat = p, strat
	}
	return nil
}

// Policy returns the active policy; Budget 0 means amnesia is off.
func (t *Table) Policy() Policy {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.policy
}

// Insert appends one batch of rows given as column-name -> values (all
// slices the same length), then enforces the amnesia budget. On a
// durable database Insert returns only after the WAL records — the
// batch plus whatever positions enforcement forgot — are fsynced per
// the commit policy; a persistence failure degrades the database to
// read-only and surfaces ErrReadOnly.
func (t *Table) Insert(cols map[string][]int64) error {
	rec := t.insertRecord(cols)
	return t.mutate(func() ([]byte, error) { return t.insertLocked(cols, rec) })
}

// insertRecord encodes the batch's WAL record before Insert takes the
// lock, since it depends only on the batch and the fixed schema: the
// other writer need not wait for it. Its allocation keeps room for the
// forget record enforcement appends under the lock: framing, name and
// count in 32 bytes beside the name, and two bytes a row for the
// positions (at a budget an insert of n rows forgets about n, each
// delta mostly one byte). nil for an in-memory database, and for a
// batch missing a schema column, which AppendBatch then rejects under
// the lock with the table's own error.
func (t *Table) insertRecord(cols map[string][]int64) []byte {
	if t.db.dur == nil {
		return nil
	}
	names := t.tbl.Columns()
	rows := len(cols[names[0]])
	rec, err := wal.RecordInsertRoom(t.name, names, cols, len(t.name)+32+2*rows)
	if err != nil {
		return nil
	}
	return rec
}

// insertLocked applies the batch and, on durable databases, returns the
// outcome to log — rec, the batch's record encoded before the lock,
// and the positions enforcement reports forgotten (what was forgotten,
// never why) appended to it as a forget record: one buffer, one write,
// one fsync, one wait. Under the lock run only the append, the
// enforcement, and the encoding of the forgotten positions into the
// room rec reserved.
func (t *Table) insertLocked(cols map[string][]int64, rec []byte) ([]byte, error) {
	if _, err := t.tbl.AppendBatch(cols); err != nil {
		return nil, err
	}
	forgotten, enfErr := t.enforceBudgetLocked()
	return t.appendForget(rec, forgotten), enfErr
}

// appendForget appends the record of the positions an enforcement
// forgot to rec; rec unchanged for none or for an in-memory database.
func (t *Table) appendForget(rec []byte, forgotten []int) []byte {
	if t.db.dur == nil || len(forgotten) == 0 {
		return rec
	}
	sortPositions(forgotten)
	return wal.AppendForget(rec, t.name, forgotten)
}

// sortPositions puts positions a strategy forgot in ascending order, in
// place, for a forget record to delta-encode. Only uniform and rot's
// uniform fallback return them out of order, so a pass that finds them
// ascending is all the rest cost.
func sortPositions(ps []int) {
	if !slices.IsSorted(ps) {
		slices.Sort(ps)
	}
}

// InsertColumn appends a batch to a table, providing values for the named
// column only; valid only for single-column tables.
func (t *Table) InsertColumn(col string, vals []int64) error {
	return t.Insert(map[string][]int64{col: vals})
}

// EnforceBudget applies the amnesia policy immediately, forgetting tuples
// until the active count is within budget. It is called automatically by
// Insert; manual calls are useful after policy changes.
func (t *Table) EnforceBudget() error {
	return t.mutate(func() ([]byte, error) {
		forgotten, err := t.enforceBudgetLocked()
		return t.appendForget(nil, forgotten), err
	})
}

// enforceBudgetLocked applies the retention window, then the budget
// strategy, and returns the positions the two forgot, valid until the
// next call; a strategy's slice is handed on, not copied, when it can.
func (t *Table) enforceBudgetLocked() ([]int, error) {
	var forgotten []int
	if t.policy.MaxAgeBatches > 0 {
		t.expired = amnesia.ForgetOlderThan(t.tbl, t.policy.MaxAgeBatches, t.expired[:0])
		forgotten = t.expired
	}
	if t.strat == nil {
		return forgotten, nil
	}
	over := t.tbl.ActiveCount() - t.policy.Budget
	if over <= 0 {
		return forgotten, nil
	}
	if chosen := t.strat.Forget(t.tbl, over); len(forgotten) == 0 {
		forgotten = chosen
	} else {
		t.expired = append(t.expired, chosen...)
		forgotten = t.expired
	}
	if got := t.tbl.ActiveCount(); got != t.policy.Budget {
		return forgotten, fmt.Errorf("amnesiadb: budget enforcement left %d active, want %d", got, t.policy.Budget)
	}
	return forgotten, nil
}

// Pred is an opaque query predicate over one column's values.
type Pred struct{ e expr.Expr }

// Range returns the predicate lo <= value < hi.
func Range(lo, hi int64) Pred {
	if lo > hi {
		lo, hi = hi, lo
	}
	return Pred{e: expr.NewRange(lo, hi)}
}

// All returns the always-true predicate (full column scan).
func All() Pred { return Pred{e: expr.True{}} }

// Eq returns the predicate value == v.
func Eq(v int64) Pred { return Pred{e: expr.Cmp{Op: expr.EQ, Val: v}} }

// Lt returns the predicate value < v.
func Lt(v int64) Pred { return Pred{e: expr.Cmp{Op: expr.LT, Val: v}} }

// Ge returns the predicate value >= v.
func Ge(v int64) Pred { return Pred{e: expr.Cmp{Op: expr.GE, Val: v}} }

// And combines two predicates conjunctively.
func And(a, b Pred) Pred { return Pred{e: expr.And{L: a.e, R: b.e}} }

// String renders the predicate in SQL-ish syntax.
func (p Pred) String() string {
	if p.e == nil {
		return "TRUE"
	}
	return p.e.String()
}

func (p Pred) expr() expr.Expr {
	if p.e == nil {
		return expr.True{}
	}
	return p.e
}

// Result is the output of Select.
type Result struct {
	// Rows are tuple positions in insertion order.
	Rows []int32
	// Values are the matching attribute values, aligned with Rows.
	Values []int64
}

// Count returns the number of matching tuples.
func (r *Result) Count() int { return len(r.Rows) }

// Select returns the active tuples of column col matching p. Access
// frequencies are updated, feeding rot-style policies.
func (t *Table) Select(col string, p Pred) (*Result, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	res, err := t.ex.Select(col, p.expr(), engine.ScanActive)
	if err != nil {
		return nil, err
	}
	return &Result{Rows: res.Rows, Values: res.Values}, nil
}

// SelectWithForgotten performs the paper's explicit "complete scan": it
// returns matches among all stored tuples, including forgotten ones.
func (t *Table) SelectWithForgotten(col string, p Pred) (*Result, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	res, err := t.ex.Select(col, p.expr(), engine.ScanAll)
	if err != nil {
		return nil, err
	}
	return &Result{Rows: res.Rows, Values: res.Values}, nil
}

// ActiveValues returns col's active values in insertion order without
// touching access frequencies, so reading it trains no strategy.
func (t *Table) ActiveValues(col string) ([]int64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ex := engine.NewSilent(t.tbl)
	ex.SetScheduler(t.db.pool)
	ex.SetParallelism(t.db.par)
	res, err := ex.Select(col, expr.True{}, engine.ScanActive)
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

// Agg holds aggregate query output.
type Agg struct {
	Count int
	Sum   int64
	Min   int64
	Max   int64
	Avg   float64
}

// ErrNoRows is returned by aggregates whose qualifying set is empty.
var ErrNoRows = engine.ErrNoRows

// Aggregate computes COUNT/SUM/AVG/MIN/MAX of col over active tuples
// matching p. It returns ErrNoRows when nothing matches.
func (t *Table) Aggregate(col string, p Pred) (Agg, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	a, err := t.ex.Aggregate(col, p.expr(), engine.ScanActive)
	if err != nil {
		return Agg{}, err
	}
	return Agg{Count: a.Rows, Sum: a.Sum, Min: a.Min, Max: a.Max, Avg: a.Avg}, nil
}

// Precision runs p in both scan modes and reports the §2.3 metrics:
// rf tuples returned, mf tuples missed to amnesia, pf = rf/(rf+mf). A
// done ctx stops the scans at their next morsel and returns the cause.
func (t *Table) Precision(ctx context.Context, col string, p Pred) (rf, mf int, pf float64, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.ex.WithContext(ctx).Precision(col, p.expr())
}

// Stats summarises table state.
type Stats struct {
	Tuples    int // stored tuples, active + forgotten
	Active    int
	Forgotten int
	Batches   int // insert batches so far
	ColdTier  int // tuples resident in cold storage
	Segments  int // summary segments absorbed
	// IndexBytes is the memory of the value-order indexes narrow
	// queries built over the table's columns (4 bytes a stored row per
	// indexed column; derived, never persisted).
	IndexBytes int
}

// Stats returns current counters.
func (t *Table) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := t.tbl.Stats()
	out := Stats{Tuples: s.Tuples, Active: s.Active, Forgotten: s.Forgotten, Batches: s.Batches, IndexBytes: s.IndexBytes}
	if t.cold != nil {
		out.ColdTier = t.cold.Tuples()
	}
	if t.book != nil {
		out.Segments = len(t.book.Segments())
	}
	return out
}

// ActivePerBatch returns, per insert batch, how many of its tuples are
// still active and how many it contained — the amnesia-map data of the
// paper's Figures 1 and 2.
func (t *Table) ActivePerBatch() (active, total []int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.tbl.ActivePerBatch()
}

// Vacuum physically removes every forgotten tuple — demoted ones
// included — and reclaims their storage; positions are renumbered.
// Summary segments survive. The cold tier does not: it is in-memory,
// holds only forgotten tuples, and drops every resident Vacuum
// reclaimed (its retrieval history stays on the bill), so a later
// RecoverRange finds nothing. On a durable database the renumbering is
// itself a logged mutation, so Vacuum returns an error when the
// database is read-only or the WAL append fails.
func (t *Table) Vacuum() error {
	return t.mutate(func() ([]byte, error) {
		t.vacuumLocked()
		return wal.RecordVacuum(t.name), nil
	})
}

// vacuumLocked applies a vacuum: Vacuum logs it afterwards, replay
// only applies it. Callers hold t.mu exclusively or own t alone.
func (t *Table) vacuumLocked() {
	t.tbl.Vacuum()
	if t.book != nil {
		t.book.Rebase()
	}
	if t.cold != nil {
		t.cold.Reclaim()
	}
}

// DemoteForgotten moves every forgotten tuple into the simulated cold
// tier (AWS-Glacier-like cost model) and returns how many moved. The
// tier is in-memory and lasts until the next Vacuum or restart. A
// dropped handle reports ErrUnknownTable instead of demoting into a
// cold tier nothing can recover from.
func (t *Table) DemoteForgotten() (n int, err error) {
	err = t.exclusive(func() error {
		if t.cold == nil {
			t.cold = coldstore.New(t.tbl, coldstore.Glacier2016)
		}
		n = t.cold.Demote()
		return nil
	})
	return n, err
}

// RecoverRange explicitly recovers cold tuples of column col with values
// in [lo, hi), reactivating them. It returns the recovered positions and
// the simulated retrieval latency.
func (t *Table) RecoverRange(col string, lo, hi int64) (hits []int, lat time.Duration, err error) {
	err = t.mutate(func() ([]byte, error) {
		if t.cold == nil {
			return nil, fmt.Errorf("amnesiadb: table %q has no cold tier", t.name)
		}
		var err error
		if hits, lat, err = t.cold.RecoverRange(col, lo, hi); err != nil || len(hits) == 0 {
			return nil, err
		}
		return wal.RecordRemember(t.name, hits), nil
	})
	if err != nil {
		return nil, 0, err
	}
	return hits, lat, nil
}

// Bill reports accumulated cold-tier costs under the Glacier model.
type Bill struct {
	StoragePerYear float64 // USD per year at rest
	RetrievalTotal float64 // USD spent on recoveries
	Retrievals     int
}

// ColdBill returns the cold tier's cost summary; zero when no tuples were
// ever demoted.
func (t *Table) ColdBill() Bill {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.cold == nil {
		return Bill{}
	}
	b := t.cold.Bill()
	return Bill{StoragePerYear: b.StoragePerYear, RetrievalTotal: b.RetrievalTotal, Retrievals: b.Retrievals}
}

// summaryEps is the quantile-sketch error bound summaries carry: ranks
// answered within 1% of the absorbed population.
const summaryEps = 0.01

// Summarize collapses the current forgotten tuples of column col into one
// aggregate segment (count/sum/min/max plus a quantile sketch) and
// returns how many tuples were absorbed. Absorbed mass keeps contributing
// to ApproxAvg and ForgottenQuantile even after a Vacuum.
func (t *Table) Summarize(col string) (n int, err error) {
	err = t.exclusive(func() error {
		if t.book == nil {
			b, err := summary.NewBookWithQuantiles(t.tbl, col, summaryEps)
			if err != nil {
				return err
			}
			t.book = b
		}
		n = t.book.Absorb()
		return nil
	})
	return n, err
}

// ForgottenQuantile returns an approximate phi-quantile (phi in [0, 1])
// of every value ever absorbed by Summarize — e.g. the median of the
// deleted data. It errors before the first Summarize call.
func (t *Table) ForgottenQuantile(phi float64) (int64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.book == nil {
		return 0, fmt.Errorf("amnesiadb: table %q has no summaries yet", t.Name())
	}
	return t.book.ForgottenQuantile(phi)
}

// GroupRow is one bucket of a grouped aggregation.
type GroupRow struct {
	// Key is the group key: the attribute value (width 0) or the
	// bucket's lower bound.
	Key   int64
	Count int
	Sum   int64
	Min   int64
	Max   int64
	Avg   float64
}

// GroupBy aggregates col over active tuples matching p, grouped by exact
// value when width is 0 or into equi-width buckets otherwise. Groups come
// back in ascending key order; groups whose members were all forgotten
// are absent entirely.
func (t *Table) GroupBy(col string, p Pred, width int64) ([]GroupRow, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var groups []engine.Group
	var err error
	if width == 0 {
		groups, err = t.ex.GroupByValue(col, p.expr(), engine.ScanActive)
	} else {
		groups, err = t.ex.GroupByBucket(col, p.expr(), engine.ScanActive, width)
	}
	if err != nil {
		return nil, err
	}
	out := make([]GroupRow, len(groups))
	for i, g := range groups {
		out[i] = GroupRow{Key: g.Key, Count: g.Rows, Sum: g.Sum, Min: g.Min, Max: g.Max, Avg: g.Avg}
	}
	return out, nil
}

// JoinRow is one equi-join match between two tables.
type JoinRow struct {
	// LeftRow and RightRow are tuple positions in the two tables.
	LeftRow, RightRow int32
	// Key is the join key value.
	Key int64
}

// Join computes the equi-join left.leftCol = right.rightCol over active
// tuples, optionally restricted by a predicate on the join key. Both
// tables must belong to this database. The join runs at the database's
// Parallelism setting: collection, hash build and probe all
// morsel-parallel for large inputs, serial below the threshold. A done
// ctx stops the join at its next morsel and returns the cause.
func (db *DB) Join(ctx context.Context, left *Table, leftCol string, right *Table, rightCol string, p Pred) ([]JoinRow, error) {
	lockPair(left, right)
	defer unlockPair(left, right)
	res, err := engine.HashJoin(ctx, db.pool, left.tbl, leftCol, right.tbl, rightCol, p.expr(), engine.ScanActive, db.par)
	if err != nil {
		return nil, err
	}
	out := make([]JoinRow, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = JoinRow{LeftRow: r.Left, RightRow: r.Right, Key: r.Key}
	}
	return out, nil
}

// JoinPrecision reports the §2.3 metrics lifted to join pairs: pairs
// returned over active tuples, pairs missed because either side forgot a
// participant, and their ratio. Join precision compounds — it is roughly
// the product of the two sides' tuple precision. A done ctx stops it
// like Join.
func (db *DB) JoinPrecision(ctx context.Context, left *Table, leftCol string, right *Table, rightCol string, p Pred) (rf, mf int, pf float64, err error) {
	lockPair(left, right)
	defer unlockPair(left, right)
	return engine.JoinPrecision(ctx, db.pool, left.tbl, leftCol, right.tbl, rightCol, p.expr(), db.par)
}

// lockPair acquires both tables' read locks in a stable order. Joins are
// read-only (their executors are silent), so shared locks suffice and
// concurrent joins and selects on the same tables proceed in parallel.
// Self-joins take the lock once.
func lockPair(a, b *Table) {
	if a == b {
		a.mu.RLock()
		return
	}
	if a.Name() > b.Name() {
		a, b = b, a
	}
	a.mu.RLock()
	b.mu.RLock()
}

func unlockPair(a, b *Table) {
	if a == b {
		a.mu.RUnlock()
		return
	}
	a.mu.RUnlock()
	b.mu.RUnlock()
}

// ApproxAvg estimates AVG(col) over active tuples plus all summarised
// segments — exact for the union, because sums are lossless.
func (t *Table) ApproxAvg(col string) (float64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.book == nil {
		a, err := t.ex.Aggregate(col, expr.True{}, engine.ScanActive)
		if err != nil {
			return 0, err
		}
		return a.Avg, nil
	}
	est, err := t.book.FullAvg()
	if err != nil {
		return 0, err
	}
	return est.Avg, nil
}
