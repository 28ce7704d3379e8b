// Package sched is the process-global query scheduler, the only way
// engine work runs: a fixed pool of worker goroutines dispatching
// morsel-sized steps from per-query run queues. Under one concurrent
// query all workers pull that query's steps; under many the pool is
// what keeps the box subscribed ~1x: the worker count is fixed at
// construction, queries share it fair-share round-robin, and short
// queries get a bounded priority boost so a 4M-row scan cannot starve
// point lookups.
//
// The unit of dispatch is a step: one call of the query's step
// function, typically one morsel claim + scan. Steps must never block
// on other queries' progress — a step that cannot proceed (its
// pipeline's in-flight budget is exhausted, say) returns Blocked
// instead of waiting, and the consumer side calls Wake once capacity
// frees up. That non-blocking contract is what makes the shared pool
// deadlock-free: a pool worker always either runs useful work or goes
// idle, never waits on a neighbour.
//
// Wait lets the querying goroutine participate: while waiting for its
// query to finish it runs the query's own steps alongside the pool
// workers. A caller therefore never sits idle behind a saturated pool,
// and a step that synchronously starts a nested query (a barrier
// inside another barrier's task) drives that nested work itself rather
// than deadlocking the worker it runs on.
package sched

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Status is a step's outcome.
type Status int

const (
	// Ran reports the step did work and the query may have more.
	Ran Status = iota
	// Blocked reports the step could not proceed (backpressure); the
	// query is parked until Wake.
	Blocked
	// Done reports the query's work is exhausted: no further steps will
	// be scheduled once in-flight ones return.
	Done
)

// shortBurst bounds the short-query priority boost: after this many
// consecutive boosted picks the scheduler takes one plain round-robin
// pick, so a stream of point lookups cannot starve a long scan.
const shortBurst = 4

// Pool is a fixed-size worker pool dispatching steps across attached
// queries. Construct with New; the zero value is unusable.
type Pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queries []*Query
	rr      int // round-robin cursor into queries
	boost   int // consecutive short-priority picks
	size    int
	running int // steps executing right now (pool workers + Wait callers)
	closed  bool
	wg      sync.WaitGroup
}

// New starts a pool of n workers (n < 1 is treated as 1).
func New(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{size: n}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the shared process-global pool, created on first use
// with GOMAXPROCS workers. It is never closed.
func Default() *Pool {
	defaultOnce.Do(func() { defaultPool = New(runtime.GOMAXPROCS(0)) })
	return defaultPool
}

// Size returns the worker count the pool was built with.
func (p *Pool) Size() int { return p.size }

// Stats is a point-in-time snapshot of pool load.
type Stats struct {
	// Workers is the fixed pool width.
	Workers int `json:"workers"`
	// Running counts steps executing right now, including Wait callers
	// driving their own queries.
	Running int `json:"running"`
	// Queries counts attached (unfinished) queries.
	Queries int `json:"queries"`
}

// Stats snapshots current load.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{Workers: p.size, Running: p.running, Queries: len(p.queries)}
}

// Close stops the pool's workers after their current step. Attached
// queries are not cancelled: Wait callers keep driving their own
// queries to completion, but detached streaming queries stop making
// progress — tear streams down before closing their pool. Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// Query is one unit of admission: a step function plus its scheduling
// state. Obtain via Attach; a Query is finished once a step returned
// Done and every in-flight step returned.
type Query struct {
	pool     *Pool
	step     func() Status
	width    int  // max concurrent steps
	short    bool // priority-boost eligible
	stepping int  // steps executing now
	wakes    uint64
	blocked  bool
	done     bool // a step returned Done; schedule nothing further
	finished bool
	fin      chan struct{}
	pan      any    // first step panic, if any
	stack    []byte // its stack
}

// Attach registers a query with the pool. width caps how many of its
// steps may execute concurrently; short marks it for the bounded
// priority boost (point lookups, small streams). step is called from
// arbitrary goroutines — pool workers and Wait callers — with at most
// width concurrent invocations, and must not block on other queries'
// progress (return Blocked instead, and arrange a Wake).
func (p *Pool) Attach(width int, short bool, step func() Status) *Query {
	if width < 1 {
		width = 1
	}
	q := &Query{pool: p, step: step, width: width, short: short, fin: make(chan struct{})}
	p.mu.Lock()
	p.queries = append(p.queries, q)
	p.mu.Unlock()
	p.cond.Broadcast()
	return q
}

// Wake unparks a query whose last step returned Blocked. Consumers
// call it whenever they free the capacity the step was missing. Wakes
// arriving while a step is executing are not lost: a step that returns
// Blocked after a concurrent Wake is immediately schedulable again.
func (q *Query) Wake() {
	p := q.pool
	p.mu.Lock()
	q.wakes++
	q.blocked = false
	p.mu.Unlock()
	p.cond.Broadcast()
}

// Done returns a channel closed once the query has finished: a step
// returned Done and all in-flight steps returned.
func (q *Query) Done() <-chan struct{} { return q.fin }

// Panicked returns the first panic a step of this query raised and its
// stack, nil when every step returned normally. Valid once Done is
// closed. Consumers that wait via Done (detached streams) use this to
// surface the failure; Wait callers get the panic re-raised instead.
func (q *Query) Panicked() (any, []byte) {
	p := q.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	return q.pan, q.stack
}

// Wait blocks until the query finishes, driving the query's own steps
// while it waits — the caller is an extra worker for exactly its own
// query, so attached work always makes progress even on a saturated
// (or closed) pool, and a nested Wait inside a pool step drives the
// nested query rather than deadlocking its worker. A step panic is
// re-raised here, in the query owner's goroutine, rather than on
// whichever pool worker happened to run the step.
func (q *Query) Wait() {
	p := q.pool
	p.mu.Lock()
	for {
		if q.finished {
			pan, stack := q.pan, q.stack
			p.mu.Unlock()
			if pan != nil {
				panic(fmt.Sprintf("sched: query step panicked: %v\n%s", pan, stack))
			}
			return
		}
		if q.runnable() {
			p.runStep(q)
			continue
		}
		p.cond.Wait()
	}
}

// runnable reports whether another step of q may start; callers hold
// the pool mutex.
func (q *Query) runnable() bool {
	return !q.done && !q.blocked && q.stepping < q.width
}

// runStep executes one step of q. Callers hold the pool mutex; it is
// released around the step itself. A panicking step is contained to
// this query: the panic is recorded, the step treated as Done, and the
// worker survives to serve other queries — one query's bug must not
// take down every query sharing the pool (or, for pool workers, the
// process).
func (p *Pool) runStep(q *Query) {
	q.stepping++
	p.running++
	seen := q.wakes
	p.mu.Unlock()
	var pan any
	var stack []byte
	st := func() (st Status) {
		defer func() {
			if r := recover(); r != nil {
				pan, stack = r, debug.Stack()
				st = Done
			}
		}()
		return q.step()
	}()
	p.mu.Lock()
	p.running--
	q.stepping--
	if pan != nil && q.pan == nil {
		q.pan, q.stack = pan, stack
	}
	switch st {
	case Done:
		q.done = true
	case Blocked:
		// Park only if no Wake raced the step; a missed Wake here would
		// strand the query.
		if q.wakes == seen {
			q.blocked = true
		}
	}
	if q.done && q.stepping == 0 && !q.finished {
		q.finished = true
		p.detach(q)
		close(q.fin)
	}
	// A returned step frees a width slot, may have finished the query,
	// or may have made siblings schedulable — let everyone re-check.
	p.cond.Broadcast()
}

// detach removes q from the run queue; callers hold the pool mutex.
func (p *Pool) detach(q *Query) {
	for i, cand := range p.queries {
		if cand == q {
			p.queries = append(p.queries[:i], p.queries[i+1:]...)
			break
		}
	}
	if len(p.queries) == 0 {
		p.rr = 0
	} else {
		p.rr %= len(p.queries)
	}
}

// pick selects the next query to step: a priority pass over short
// queries (bounded by shortBurst), then plain round-robin. Callers
// hold the pool mutex; nil means nothing is runnable.
func (p *Pool) pick() *Query {
	n := len(p.queries)
	if n == 0 {
		return nil
	}
	if p.boost < shortBurst {
		for i := 0; i < n; i++ {
			idx := (p.rr + i) % n
			q := p.queries[idx]
			if q.short && q.runnable() {
				p.boost++
				p.rr = (idx + 1) % n
				return q
			}
		}
	}
	for i := 0; i < n; i++ {
		idx := (p.rr + i) % n
		q := p.queries[idx]
		if q.runnable() {
			p.boost = 0
			p.rr = (idx + 1) % n
			return q
		}
	}
	return nil
}

// worker is the pool worker loop: pick a query fair-share, run one
// step, repeat; idle on the condvar when nothing is runnable.
func (p *Pool) worker() {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		if p.closed {
			p.mu.Unlock()
			return
		}
		q := p.pick()
		if q == nil {
			p.cond.Wait()
			continue
		}
		p.runStep(q)
	}
}
