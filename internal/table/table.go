// Package table binds columns to the per-tuple metadata the amnesia
// machinery needs: the batch each tuple arrived in (the paper's timeline),
// its access frequency (for query-based amnesia, §3.2), and an active bit
// (§2.1: "For each table T, we keep a record of active and forgotten
// tuples"). Forgetting marks tuples inactive; Vacuum physically removes
// them, which is the most radical of the four fates §1 enumerates.
package table

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"amnesiadb/internal/bitvec"
	"amnesiadb/internal/column"
)

// Table is a fixed-schema collection of int64 columns plus tuple metadata.
// All columns have identical length.
//
// Concurrency contract: structural mutation (appends, forgetting,
// vacuuming) requires external exclusive locking, but any number of
// concurrent readers may scan the table — and those readers may call
// Touch/TouchMany/TouchRange, which serialise the access-frequency
// updates behind internal stripe mutexes. That split is what lets the
// facade run ScanActive queries under a shared read lock while
// preserving the §3.2 query-based-amnesia feedback loop.
//
// The read surface the engine's morsel workers need — Column, Active,
// Len — takes no locks and returns stable references while the
// table's external lock is held shared, so any number of intra-query
// worker goroutines may scan concurrently with zero coordination
// through the table itself; only their touches — one TouchMany per
// select or stream, one TouchRange per block an aggregate folds —
// meet a stripe. A stripe guards the access counts of every
// TouchBlock-row block it is mapped to, and a goroutine holds at most
// one at a time. (A column's value-order index is built on that read
// surface too; see column.Int64.BuildIndex.)
type Table struct {
	name    string
	colName []string
	cols    []*column.Int64
	byName  map[string]int

	active      *bitvec.Vector
	insertBatch []int32 // batch id each tuple arrived in
	batches     int     // number of batches appended so far

	// stripes guard accessCount against concurrent readers' touches,
	// row i's under stripes[stripeOf(i)]. Readers of accessCount
	// (strategies, snapshots) run under the facade's exclusive lock, so
	// they need no extra synchronisation here.
	stripes     [touchStripes]stripe
	accessCount []uint32 // times the tuple appeared in a query result

	// epoch counts result-changing mutations: appends, forgetting,
	// remembering, vacuuming. Touches do not bump it — access counts
	// never change what a query returns. The SQL layer's result cache
	// keys on it; see Epoch.
	epoch atomic.Uint64

	// scanStride remembers the last effective adaptive-morsel stride a
	// full scan of this table settled on (in blocks; 0 = none yet), so
	// the next query's cursor skips the warm-up doublings. A hint only:
	// results are stride-independent by construction.
	scanStride atomic.Int32
}

// New creates an empty table with the given column names. It panics on an
// empty or duplicated column list.
func New(name string, columns ...string) *Table {
	t, err := newTable(name, columns)
	if err != nil {
		panic(err)
	}
	return t
}

func newTable(name string, columns []string) (*Table, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("table %s: no columns", name)
	}
	t := &Table{
		name:    name,
		colName: append([]string(nil), columns...),
		byName:  make(map[string]int, len(columns)),
		active:  bitvec.New(0),
	}
	for i, c := range columns {
		if _, dup := t.byName[c]; dup {
			return nil, fmt.Errorf("table %s: duplicate column %q", name, c)
		}
		t.byName[c] = i
		t.cols = append(t.cols, column.New())
	}
	return t, nil
}

// State is a table's persisted form, one slice per tuple attribute, as
// the snapshot format stores it.
type State struct {
	Name    string
	Columns []string
	// Values holds one slice per column, in Columns order.
	Values [][]int64
	// Batch is each tuple's insert batch id, ascending, below Batches:
	// the number of batches appended, those Vacuum emptied included.
	Batch   []int64
	Batches int
	// Active has bit i%8 of byte i/8 set when tuple i is active.
	Active []byte
	// Access is each tuple's access count.
	Access []int64
}

// State returns t's persisted form. Values aliases the column storage
// and must be treated as read-only.
func (t *Table) State() State {
	s := State{Name: t.name, Columns: t.Columns(), Batches: t.batches, Active: t.active.Bytes()}
	for _, c := range t.cols {
		s.Values = append(s.Values, c.Values())
	}
	s.Batch = make([]int64, t.Len())
	s.Access = make([]int64, t.Len())
	for i := range s.Batch {
		s.Batch[i], s.Access[i] = int64(t.insertBatch[i]), int64(t.accessCount[i])
	}
	return s
}

// Restore rebuilds the table s describes in one validated pass,
// adopting its Values: the inverse of State. A state no sequence of
// appends, forgets and touches could have produced is an error.
func Restore(s State) (*Table, error) {
	t, err := newTable(s.Name, s.Columns)
	if err != nil {
		return nil, err
	}
	n := len(s.Batch)
	if len(s.Values) != len(s.Columns) {
		return nil, fmt.Errorf("table %s: %d value slices for %d columns", s.Name, len(s.Values), len(s.Columns))
	}
	for i, vs := range s.Values {
		if len(vs) != n {
			return nil, fmt.Errorf("table %s: column %q has %d values for %d tuples", s.Name, s.Columns[i], len(vs), n)
		}
	}
	if len(s.Access) != n || len(s.Active) != (n+7)/8 {
		return nil, fmt.Errorf("table %s: %d access counts and %d active-bitmap bytes for %d tuples", s.Name, len(s.Access), len(s.Active), n)
	}
	if s.Batches < 0 || s.Batches > math.MaxInt32 {
		return nil, fmt.Errorf("table %s: batch count %d out of range", s.Name, s.Batches)
	}
	t.insertBatch = make([]int32, n)
	t.accessCount = make([]uint32, n)
	prev := int64(0)
	for i, b := range s.Batch {
		if b < prev || b >= int64(s.Batches) {
			return nil, fmt.Errorf("table %s: tuple %d has batch id %d after %d, with %d batches", s.Name, i, b, prev, s.Batches)
		}
		a := s.Access[i]
		if a < 0 || a > math.MaxUint32 {
			return nil, fmt.Errorf("table %s: tuple %d has access count %d", s.Name, i, a)
		}
		t.insertBatch[i], t.accessCount[i], prev = int32(b), uint32(a), b
	}
	for i, vs := range s.Values {
		t.cols[i] = column.FromValues(vs)
	}
	t.batches = s.Batches
	t.active = bitvec.FromBytes(s.Active, n)
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Columns returns the column names in declaration order.
func (t *Table) Columns() []string { return append([]string(nil), t.colName...) }

// Column returns the storage for the named column, or an error if unknown.
func (t *Table) Column(name string) (*column.Int64, error) {
	i, ok := t.byName[name]
	if !ok {
		return nil, fmt.Errorf("table %s: unknown column %q", t.name, name)
	}
	return t.cols[i], nil
}

// MustColumn is Column but panics on unknown names; for internal call sites
// where the schema is static.
func (t *Table) MustColumn(name string) *column.Int64 {
	c, err := t.Column(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Len returns the total number of tuples, active and forgotten.
func (t *Table) Len() int { return len(t.insertBatch) }

// ActiveCount returns the number of active tuples.
func (t *Table) ActiveCount() int { return t.active.Count() }

// ForgottenCount returns the number of forgotten tuples still stored.
func (t *Table) ForgottenCount() int { return t.Len() - t.ActiveCount() }

// Batches returns the number of update batches appended so far.
func (t *Table) Batches() int { return t.batches }

// Epoch returns the table's mutation epoch: a counter bumped by every
// result-changing mutation (AppendBatch, Forget, ForgetMany, Remember,
// Vacuum) under the caller's exclusive lock. Readers holding the
// shared lock see a stable value, so (query, epoch) identifies a
// result: any later mutation makes the pair stale. Touch feedback
// does not bump it.
func (t *Table) Epoch() uint64 { return t.epoch.Load() }

// bumpEpoch marks a result-changing mutation.
func (t *Table) bumpEpoch() { t.epoch.Add(1) }

// AdvanceEpoch jumps the mutation epoch forward by delta. The facade
// uses it to stamp each relation incarnation into a disjoint epoch
// range, so a restored or recreated table of the same name can never
// reproduce a (query, epoch) pair a dropped predecessor already put in
// the result cache.
func (t *Table) AdvanceEpoch(delta uint64) { t.epoch.Add(delta) }

// ActiveSnapshot appends the active bitmap's words to dst and returns
// the extended slice plus the current tuple count. Together with
// ForgottenSince it diffs the bitmap around a mutation. Strategies
// report what they forget themselves, so the serving path calls
// neither: they are the oracle the position tests hold those reports
// against, and what the benchmark's table.forget_diff rung times.
func (t *Table) ActiveSnapshot(dst []uint64) ([]uint64, int) {
	n := t.Len()
	for wi := 0; wi < (n+63)/64; wi++ {
		dst = append(dst, t.active.Word(wi))
	}
	return dst, n
}

// ForgottenSince returns the positions that flipped from active (or did
// not exist) in the snapshot to forgotten now: a tuple counts when its
// bit is clear and it was either set at snapshot time or appended after
// it (appended-then-immediately-forgotten). Positions ascend. Must not
// span a Vacuum, which renumbers positions.
func (t *Table) ForgottenSince(words []uint64, oldLen int) []int {
	var out []int
	n := t.Len()
	for i := 0; i < n; i++ {
		if t.active.Test(i) {
			continue
		}
		if i >= oldLen || words[i/64]&(1<<(uint(i)%64)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// ScanStrideHint returns the last recorded effective morsel stride in
// blocks, 0 when no scan has recorded one yet.
func (t *Table) ScanStrideHint() int { return int(t.scanStride.Load()) }

// RecordScanStride stores the effective morsel stride a completed scan
// settled on, seeding the next query's adaptive cursor.
func (t *Table) RecordScanStride(blocks int) {
	if blocks > 0 {
		t.scanStride.Store(int32(blocks))
	}
}

// Active exposes the activity bitmap. Callers must not mutate it directly;
// use Forget/Remember so metadata stays consistent. Strategies and scans
// read it.
func (t *Table) Active() *bitvec.Vector { return t.active }

// InsertBatch returns the batch id tuple i arrived in.
func (t *Table) InsertBatch(i int) int32 { return t.insertBatch[i] }

// BatchStart returns the position of the first tuple that arrived in
// batch b or later, Len() when there is none. Appends extend the tail
// and Vacuum preserves order, so batch ids never decrease along the
// positions and "older than batch b" is the prefix [0, BatchStart(b)).
func (t *Table) BatchStart(b int32) int {
	return sort.Search(len(t.insertBatch), func(i int) bool { return t.insertBatch[i] >= b })
}

// AccessCount returns the query access frequency of tuple i.
func (t *Table) AccessCount(i int) uint32 { return t.accessCount[i] }

// AppendBatch appends one update batch. vals maps column name to a slice of
// equal length; every schema column must be present. New tuples arrive
// active. The assigned batch id is returned.
func (t *Table) AppendBatch(vals map[string][]int64) (int, error) {
	if len(vals) != len(t.cols) {
		return 0, fmt.Errorf("table %s: batch has %d columns, schema has %d", t.name, len(vals), len(t.cols))
	}
	n := -1
	for _, name := range t.colName {
		vs, ok := vals[name]
		if !ok {
			return 0, fmt.Errorf("table %s: batch missing column %q", t.name, name)
		}
		if n == -1 {
			n = len(vs)
		} else if len(vs) != n {
			return 0, fmt.Errorf("table %s: ragged batch: column %q has %d values, want %d", t.name, name, len(vs), n)
		}
	}
	batch := t.batches
	t.batches++
	for i, name := range t.colName {
		t.cols[i].AppendSlice(vals[name])
	}
	// Bulk-extend the per-tuple metadata: one grow per slice, then a
	// flat fill, instead of 2n appends.
	old := t.Len()
	t.insertBatch = slices.Grow(t.insertBatch, n)[:old+n]
	t.accessCount = slices.Grow(t.accessCount, n)[:old+n]
	fill := t.insertBatch[old:]
	for i := range fill {
		fill[i] = int32(batch)
	}
	clear(t.accessCount[old:])
	t.active.GrowSet(old + n)
	t.bumpEpoch()
	return batch, nil
}

// AppendSingleColumn is a convenience for the simulator's one-column tables.
func (t *Table) AppendSingleColumn(vs []int64) (int, error) {
	if len(t.colName) != 1 {
		return 0, fmt.Errorf("table %s: AppendSingleColumn on %d-column schema", t.name, len(t.colName))
	}
	return t.AppendBatch(map[string][]int64{t.colName[0]: vs})
}

// Forget marks tuple i inactive. Forgetting an already-forgotten tuple is a
// no-op. It panics if i is out of range.
func (t *Table) Forget(i int) {
	t.active.Clear(i)
	t.bumpEpoch()
}

// ForgetMany marks all given tuples inactive.
func (t *Table) ForgetMany(idx []int) {
	if len(idx) == 0 {
		return
	}
	for _, i := range idx {
		t.active.Clear(i)
	}
	t.bumpEpoch()
}

// Remember reactivates tuple i (used by cold-storage recovery).
func (t *Table) Remember(i int) {
	t.active.Set(i)
	t.bumpEpoch()
}

// IsActive reports whether tuple i is active.
func (t *Table) IsActive(i int) bool { return t.active.Test(i) }

// TouchBlock is the number of rows whose access counts share one
// stripe lock at a time: an aggregate holds a stripe for one block.
const TouchBlock = 1024

// touchStripes is the number of stripe mutexes per table. Block b maps
// to stripe (b + b/64) mod 64, so the workers of one query, walking
// different 64-block morsels in step, never share a stripe.
const touchStripes = 64

// stripe is one access-count mutex, padded to a cache line so that
// workers on neighbouring stripes do not share one.
type stripe struct {
	sync.Mutex
	_ [56]byte
}

// stripeOf returns the stripe guarding the access count of row i.
func stripeOf(i int) int {
	b := uint(i) / TouchBlock
	return int((b + b/touchStripes) % touchStripes)
}

// Touch increments the access count of tuple i, saturating at the uint32
// ceiling. It is safe to call from concurrent readers.
func (t *Table) Touch(i int) {
	mu := &t.stripes[stripeOf(i)]
	mu.Lock()
	t.touchOne(i)
	mu.Unlock()
}

// TouchMany increments the access count for each listed tuple. Query
// execution accumulates the positions a query returned and flushes them
// here in one call. It holds one stripe at a time, for a run of
// consecutive positions in one block. A run whose stripe is held — by
// an aggregate folding a block under it — is set aside and touched
// after the others, so a long flush does not queue behind every
// aggregate block it meets.
func (t *Table) TouchMany(idx []int32) {
	var stack [16][]int32 // runs set aside; few, so kept off the heap
	busy := stack[:0]
	for len(idx) > 0 {
		mu := &t.stripes[stripeOf(int(idx[0]))]
		if mu.TryLock() {
			idx = idx[t.blockRun(idx, true):]
			mu.Unlock()
			continue
		}
		n := t.blockRun(idx, false)
		busy = append(busy, idx[:n])
		idx = idx[n:]
	}
	for _, run := range busy {
		mu := &t.stripes[stripeOf(int(run[0]))]
		mu.Lock()
		t.blockRun(run, true)
		mu.Unlock()
	}
}

// blockRun returns how many leading positions of idx lie in idx[0]'s
// block, touching them when touch is set; the caller then holds the
// block's stripe.
func (t *Table) blockRun(idx []int32, touch bool) int {
	b := uint32(idx[0]) / TouchBlock
	for n, i := range idx {
		if uint32(i)/TouchBlock != b {
			return n
		}
		if touch {
			t.touchOne(int(i))
		}
	}
	return len(idx)
}

// TouchRange lends fn the access counts of rows [start, end) —
// counts[k] is row start+k's — under the stripe of their block; the
// interval must lie inside one TouchBlock-row block. fn increments the
// counts of the rows it touches, saturating at the uint32 ceiling, and
// must not retain counts or take another lock. Aggregates fold and
// touch a block in one pass this way.
func (t *Table) TouchRange(start, end int, fn func(counts []uint32)) {
	if start < 0 || end > len(t.accessCount) || start > end || (start < end && start/TouchBlock != (end-1)/TouchBlock) {
		panic(fmt.Sprintf("table: TouchRange [%d, %d) is not inside one %d-row block of a %d-row table", start, end, TouchBlock, len(t.accessCount)))
	}
	mu := &t.stripes[stripeOf(start)]
	mu.Lock()
	defer mu.Unlock()
	fn(t.accessCount[start:end])
}

// touchOne is the lock-free core of Touch; callers hold row i's stripe.
func (t *Table) touchOne(i int) {
	if t.accessCount[i] != ^uint32(0) {
		t.accessCount[i]++
	}
}

// ActiveIndices returns the positions of all active tuples in insertion
// order.
func (t *Table) ActiveIndices() []int { return t.active.SetIndices() }

// ForgottenIndices returns the positions of all forgotten tuples.
func (t *Table) ForgottenIndices() []int { return t.active.ClearIndices() }

// Stats summarises the table for reporting and strategy decisions.
type Stats struct {
	Tuples    int
	Active    int
	Forgotten int
	Batches   int
	// IndexBytes is the memory held by the columns' value-order
	// indexes (column.Int64.IndexBytes): derived state, built by the
	// first narrow query that wants one.
	IndexBytes int
}

// Stats returns current counters.
func (t *Table) Stats() Stats {
	a := t.ActiveCount()
	ix := 0
	for _, c := range t.cols {
		ix += c.IndexBytes()
	}
	return Stats{Tuples: t.Len(), Active: a, Forgotten: t.Len() - a, Batches: t.batches, IndexBytes: ix}
}

// Vacuum physically removes forgotten tuples from every column and from the
// metadata arrays, compacting storage into arrays of exactly the active
// count. It returns the remapping from old to new positions (-1 for
// removed tuples), built once and shared by every column. This
// implements the paper's "as radical as to delete all data being
// forgotten".
func (t *Table) Vacuum() []int32 {
	keep := t.active
	remap := keep.Ranks(t.Len())
	for _, c := range t.cols {
		c.Compact(keep, remap)
	}
	t.insertBatch = bitvec.Keep(keep, t.insertBatch)
	t.accessCount = bitvec.Keep(keep, t.accessCount)
	t.active = bitvec.NewSet(len(t.insertBatch))
	t.bumpEpoch()
	return remap
}

// ActivePerBatch returns, for each batch id, (active, total) tuple counts.
// This is the raw series behind the paper's amnesia maps (Figures 1 and 2).
func (t *Table) ActivePerBatch() (active, total []int) {
	active = make([]int, t.batches)
	total = make([]int, t.batches)
	for i, b := range t.insertBatch {
		total[b]++
		if t.active.Test(i) {
			active[b]++
		}
	}
	return active, total
}

// OldestActive returns the position of the oldest (lowest index) active
// tuple, or -1 when none are active.
func (t *Table) OldestActive() int { return t.active.NextSet(0) }
