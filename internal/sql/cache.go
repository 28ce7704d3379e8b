package sql

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the SQL layer's caching tier for the serving path: a
// parsed-plan LRU that skips the lexer/parser on hot statements, and a
// bounded result cache keyed by (normalized SQL, relation epochs) that
// serves repeated hot queries without scanning at all. Both are
// correctness-transparent: plans are immutable after Parse, and a
// result entry is only ever served while every underlying relation
// still has the epoch it was computed at — any insert, forget,
// remember or vacuum bumps an epoch and the stale entry is evicted on
// its next lookup. Access-frequency touches do not bump epochs (they
// cannot change a result), which also means a cache hit skips the
// §3.2 touch feedback; see the facade docs for that trade-off.

// NormalizeSQL canonicalizes a statement for cache keying: whitespace
// runs collapse to single spaces and the ends are trimmed. The grammar
// has no string literals, so whitespace is never significant and the
// normalized text parses identically to the original. A statement that
// is already canonical comes back as it is, without allocating.
func NormalizeSQL(query string) string {
	if isCanonicalSQL(query) {
		return query
	}
	return strings.Join(strings.Fields(query), " ")
}

// isCanonicalSQL reports whether query is its own normalization: ASCII
// only (strings.Fields splits on U+0085 and U+00A0 too), and no
// whitespace but single spaces between words.
func isCanonicalSQL(query string) bool {
	for i := 0; i < len(query); i++ {
		switch c := query[i]; {
		case c >= 0x80:
			return false
		case c == ' ':
			if i == 0 || i == len(query)-1 || query[i-1] == ' ' {
				return false
			}
		case c == '\t', c == '\n', c == '\v', c == '\f', c == '\r':
			return false
		}
	}
	return true
}

// MaxCachedResultRows bounds which results are cacheable: only small,
// fully-materialized results — aggregates, point lookups, tight LIMITs
// — are worth pinning; anything larger is cheaper to re-stream than to
// hold resident. One stream chunk is the natural cut-off.
const MaxCachedResultRows = StreamChunkRows

// lru is the bounded map behind both caches: entries keyed by
// normalized SQL, evicted least-recently-used first, with cumulative
// hit and miss counters.
type lru[V any] struct {
	mu   sync.Mutex
	cap  int
	m    map[string]*list.Element
	ll   list.List // front = most recent; values are *lruEntry[V]
	hits atomic.Uint64
	miss atomic.Uint64
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) *lru[V] {
	return &lru[V]{cap: capacity, m: make(map[string]*list.Element, capacity)}
}

// get returns key's value and marks it most recent. A present value
// that valid (when non-nil) rejects is evicted on the spot and counts
// as a miss, like an absent one.
func (c *lru[V]) get(key string, valid func(V) bool) (v V, ok bool) {
	c.mu.Lock()
	if el, found := c.m[key]; found {
		v = el.Value.(*lruEntry[V]).val
		if ok = valid == nil || valid(v); ok {
			c.ll.MoveToFront(el)
		} else {
			c.ll.Remove(el)
			delete(c.m, key)
		}
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.miss.Add(1)
	}
	return v, ok
}

// put stores v under key as the most recent entry, replacing any
// present one, and evicts the least recent entry past capacity.
func (c *lru[V]) put(key string, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*lruEntry[V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: v})
	if c.ll.Len() > c.cap {
		old := c.ll.Back()
		c.ll.Remove(old)
		delete(c.m, old.Value.(*lruEntry[V]).key)
	}
}

func (c *lru[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

func (c *lru[V]) counters() (hits, misses uint64) { return c.hits.Load(), c.miss.Load() }

// PlanCache is an LRU of parsed statements keyed by normalized SQL
// text. Parsed Query values are never mutated after Parse, so one
// cached plan may serve any number of concurrent executions.
type PlanCache struct{ lru *lru[*Query] }

// NewPlanCache builds a plan cache holding up to capacity statements;
// capacity < 1 returns nil, and a nil cache parses straight through.
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		return nil
	}
	return &PlanCache{newLRU[*Query](capacity)}
}

// Parse returns the parsed form of query, from cache when hot. Parse
// errors are not cached; a hot bad statement re-parses (and re-fails)
// each time, which keeps error messages exact and the cache clean.
func (c *PlanCache) Parse(query string) (*Query, error) {
	if c == nil {
		return Parse(query)
	}
	if q, ok := c.lru.get(query, nil); ok {
		return q, nil
	}
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	c.lru.put(query, q)
	return q, nil
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	if c == nil {
		return 0
	}
	return c.lru.len()
}

// Counters returns cumulative hit/miss counts.
func (c *PlanCache) Counters() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.lru.counters()
}

// CachedResult is one fully-materialized query result as the stream
// layer shapes it. Chunk holds it column-major, as the facade's
// recorder tees it from a drained stream; it is shared between the
// cache and every hit and is never modified. Rows is the row form, for
// a result built by hand; it is read only when Chunk is nil.
type CachedResult struct {
	Columns []string
	Ints    []bool
	Rows    [][]float64
	Chunk   *Chunk
}

// len returns the result's row count.
func (r *CachedResult) len() int {
	if r.Chunk != nil {
		return r.Chunk.Len
	}
	return len(r.Rows)
}

// signedResult pairs a cached result with the epoch signature it was
// computed at.
type signedResult struct {
	sig string
	res *CachedResult
}

// ResultCache is a bounded LRU of materialized results keyed by
// normalized SQL, each entry stamped with the epoch signature of every
// relation the query read. A lookup whose current signature differs
// finds the entry stale and evicts it on the spot — that eviction is
// exactly how an Insert/Adapt/forget invalidates cached answers.
type ResultCache struct{ lru *lru[signedResult] }

// NewResultCache builds a result cache holding up to capacity results;
// capacity < 1 returns nil, and a nil cache never hits.
func NewResultCache(capacity int) *ResultCache {
	if capacity < 1 {
		return nil
	}
	return &ResultCache{newLRU[signedResult](capacity)}
}

// Get returns the cached result for key if present and computed at the
// given epoch signature. A present entry with any other signature is
// stale — some relation mutated since — and is evicted immediately.
func (c *ResultCache) Get(key, sig string) (*CachedResult, bool) {
	if c == nil {
		return nil, false
	}
	e, ok := c.lru.get(key, func(e signedResult) bool { return e.sig == sig })
	return e.res, ok
}

// Put stores a result computed at the given epoch signature,
// displacing any entry under the same key (a concurrent writer may
// have stored a staler one; signatures disambiguate at Get time) and
// the least-recently-used entry past capacity. Oversized results are
// rejected — see MaxCachedResultRows.
func (c *ResultCache) Put(key, sig string, res *CachedResult) {
	if c == nil || res.len() > MaxCachedResultRows {
		return
	}
	c.lru.put(key, signedResult{sig: sig, res: res})
}

// Len returns the number of cached results.
func (c *ResultCache) Len() int {
	if c == nil {
		return 0
	}
	return c.lru.len()
}

// Counters returns cumulative hit/miss counts (stale evictions count
// as misses).
func (c *ResultCache) Counters() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.lru.counters()
}

// NewCachedStream replays a cached result as a detached ResultStream.
// A cacheable result fits one stream chunk, so a hit replays its one
// shared chunk as it is, with no copy: NextChunk's chunk is read-only,
// and the row adapters hand out rows of their own.
func NewCachedStream(res *CachedResult) *ResultStream {
	c := res.Chunk
	if c == nil {
		c = floatChunk(res.Rows)
	}
	return oneChunkStream(res.Columns, res.Ints, c)
}

// floatChunk turns rows into a chunk of float columns.
func floatChunk(rows [][]float64) *Chunk {
	c := &Chunk{Len: len(rows)}
	if len(rows) == 0 {
		return c
	}
	c.Cols = make([]Col, len(rows[0]))
	for j := range c.Cols {
		col := make([]float64, len(rows))
		for i, row := range rows {
			col[i] = row[j]
		}
		c.Cols[j].Floats = col
	}
	return c
}
