// Package governor is the engine's per-query resource accounting and
// enforcement layer. Every pooled batch a pipelined scan keeps in
// flight, every join build table and every sort run charges the query's
// *Quota; the charge is released when the buffers go back to the pool
// (or the transient phase ends). A query that exceeds its byte budget
// is cancelled alone — the latched ErrResourceExhausted surfaces at the
// next morsel boundary — and a process-wide high-water mark (tied to
// GOMEMLIMIT) sheds the most expensive in-flight query instead of
// letting the process OOM.
//
// All Quota methods are nil-receiver safe, so ungoverned paths (no
// budget configured, internal scans, tests) pay nothing: the engine
// charges unconditionally and a nil quota absorbs it.
//
// The quota travels with the query's context (WithQuota/FromContext)
// rather than through engine signatures, so every layer that already
// threads a context — the scan pipeline, the join's side collectors,
// ORDER BY's run sorts — picks it up without interface changes.
//
// Failpoint family (see internal/durability/failpoint):
//
//	governor.acquire — forces the next Acquire to fail as if the
//	                   budget were exhausted (deterministic kill tests)
//	governor.probe   — forces the degraded-mode heal probe to fail,
//	                   holding the server read-only while armed
package governor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"amnesiadb/internal/durability/failpoint"
)

// ErrResourceExhausted is the typed error a query killed by resource
// governance reports: its own budget ran out, or the process high-water
// mark shed it. The server maps it to HTTP 413.
var ErrResourceExhausted = errors.New("governor: query resource budget exhausted")

// ErrDeadlineExceeded is the typed error a query killed by its
// per-query deadline reports. It is also installed as the cancellation
// cause of the deadline context, so both the morsel-boundary check and
// the pipeline's wait on the context surface the same error. The
// server maps it to HTTP 408.
var ErrDeadlineExceeded = errors.New("governor: query deadline exceeded")

// Failpoint site names of the governor.* family.
const (
	// FailpointAcquire forces Quota.Acquire to fail.
	FailpointAcquire = "governor.acquire"
	// FailpointProbe forces the degraded-mode heal probe to fail.
	FailpointProbe = "governor.probe"
)

// Governor is the process-wide ledger: the sum of all live quotas'
// governed bytes, checked against a high-water mark. Cross-query state
// only — per-query budgets live in the Quota.
type Governor struct {
	limit int64        // high-water mark in governed bytes; 0 disables shedding
	usage atomic.Int64 // sum of registered quotas' used bytes
	peak  atomic.Int64
	sheds atomic.Uint64

	mu     sync.Mutex
	quotas map[*Quota]struct{}
}

// New builds a governor with the given high-water mark in governed
// bytes. Zero disables process-wide shedding (per-query budgets still
// enforce); use HighWaterFromGOMEMLIMIT to derive a limit from the
// runtime's memory limit.
func New(highWater int64) *Governor {
	if highWater < 0 {
		highWater = 0
	}
	return &Governor{limit: highWater, quotas: map[*Quota]struct{}{}}
}

// HighWaterFromGOMEMLIMIT derives a shed threshold from the process's
// GOMEMLIMIT: half of it, leaving the other half for the resident
// columns, caches and runtime overhead the governor does not meter.
// Returns 0 (shedding disabled) when no memory limit is set.
func HighWaterFromGOMEMLIMIT() int64 {
	lim := debug.SetMemoryLimit(-1) // query without changing
	if lim <= 0 || lim == math.MaxInt64 {
		return 0
	}
	return lim / 2
}

// Limit returns the high-water mark (0 when shedding is disabled).
func (g *Governor) Limit() int64 {
	if g == nil {
		return 0
	}
	return g.limit
}

// NewQuota registers and returns a quota with the given per-query byte
// budget (0 = unlimited; the quota still meters usage for the process
// high-water mark and /healthz). Callers must Remove the quota when the
// query finishes so residual charges from abandoned streams cannot
// distort the ledger.
func (g *Governor) NewQuota(budget int64) *Quota {
	if g == nil {
		return nil
	}
	q := &Quota{g: g, budget: budget}
	g.mu.Lock()
	g.quotas[q] = struct{}{}
	g.mu.Unlock()
	return q
}

// Remove unregisters a quota and sweeps any residual charge out of the
// process ledger. Safe on nil receivers and nil quotas; idempotent.
func (g *Governor) Remove(q *Quota) {
	if g == nil || q == nil {
		return
	}
	g.mu.Lock()
	delete(g.quotas, q)
	g.mu.Unlock()
	q.mu.Lock()
	residual := q.used
	q.used = 0
	q.closed = true
	q.mu.Unlock()
	if residual != 0 {
		g.usage.Add(-residual)
	}
}

// Stats is the governor's /healthz snapshot.
type Stats struct {
	// ActiveQueries is the number of registered (in-flight) quotas.
	ActiveQueries int
	// UsedBytes is the governed bytes currently outstanding across all
	// queries — dominated by pooled batches held by streams in flight.
	UsedBytes int64
	// PeakBytes is the high-water of UsedBytes over the process life.
	PeakBytes int64
	// HighWater is the shed threshold (0 = shedding disabled).
	HighWater int64
	// Sheds counts queries killed by the process high-water mark.
	Sheds uint64
}

// Stats returns a consistent-enough snapshot for monitoring.
func (g *Governor) Stats() Stats {
	if g == nil {
		return Stats{}
	}
	g.mu.Lock()
	n := len(g.quotas)
	g.mu.Unlock()
	return Stats{
		ActiveQueries: n,
		UsedBytes:     g.usage.Load(),
		PeakBytes:     g.peak.Load(),
		HighWater:     g.limit,
		Sheds:         g.sheds.Load(),
	}
}

// shed kills the registered quota with the largest outstanding charge —
// one kill frees the most bytes, so the fewest queries die to bring the
// process back under the mark. The victim observes the latched error at
// its next morsel boundary and tears down, releasing its chunks.
func (g *Governor) shed(tot int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.usage.Load() <= g.limit {
		return // a concurrent shed already brought us back under
	}
	var victim *Quota
	var vUsed int64
	for q := range g.quotas {
		q.mu.Lock()
		if q.kill == nil && q.used > vUsed {
			victim, vUsed = q, q.used
		}
		q.mu.Unlock()
	}
	if victim == nil {
		return
	}
	victim.mu.Lock()
	if victim.kill == nil {
		victim.kill = fmt.Errorf("%w: shed at process high-water mark (%d governed bytes > %d limit; this query held %d)",
			ErrResourceExhausted, tot, g.limit, vUsed)
		g.sheds.Add(1)
	}
	victim.mu.Unlock()
}

// Quota is one query's resource account: governed bytes charged against
// an optional budget, an optional deadline, and a latched kill error.
// A nil *Quota is valid and free: every method no-ops.
type Quota struct {
	g      *Governor
	budget int64        // 0 = no per-query cap
	dl     atomic.Int64 // deadline, unix nanos; 0 = none

	mu     sync.Mutex
	used   int64
	peak   int64
	kill   error
	closed bool
}

// Acquire charges n governed bytes. It fails — latching the error so
// every later Acquire and Check fails identically — when the query's
// budget would be exceeded, and triggers a process-level shed when the
// global ledger crosses the high-water mark. A failed Acquire charges
// nothing; callers must not Release it.
func (q *Quota) Acquire(n int64) error {
	if q == nil {
		return nil
	}
	if err := failpoint.Eval(FailpointAcquire); err != nil {
		q.mu.Lock()
		if q.kill == nil {
			q.kill = fmt.Errorf("%w: %w", ErrResourceExhausted, err)
		}
		err = q.kill
		q.mu.Unlock()
		return err
	}
	q.mu.Lock()
	if q.kill != nil {
		err := q.kill
		q.mu.Unlock()
		return err
	}
	if q.closed {
		q.mu.Unlock()
		return nil // post-removal stragglers charge nothing
	}
	if q.budget > 0 && q.used+n > q.budget {
		q.kill = fmt.Errorf("%w: query needs %d bytes over its %d-byte budget (-max-query-bytes)",
			ErrResourceExhausted, q.used+n, q.budget)
		err := q.kill
		q.mu.Unlock()
		return err
	}
	q.used += n
	if q.used > q.peak {
		q.peak = q.used
	}
	q.mu.Unlock()
	if g := q.g; g != nil {
		tot := g.usage.Add(n)
		for {
			p := g.peak.Load()
			if tot <= p || g.peak.CompareAndSwap(p, tot) {
				break
			}
		}
		if g.limit > 0 && tot > g.limit {
			g.shed(tot)
		}
	}
	return nil
}

// Release returns n previously acquired bytes. Releases after the quota
// was removed from its governor are absorbed (Remove already swept the
// residual).
func (q *Quota) Release(n int64) {
	if q == nil {
		return
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.used -= n
	q.mu.Unlock()
	if q.g != nil {
		q.g.usage.Add(-n)
	}
}

// Check reports the latched kill error, or ErrDeadlineExceeded once the
// deadline passed. The engine calls it at morsel boundaries so a killed
// query stops producing promptly.
func (q *Quota) Check() error {
	if q == nil {
		return nil
	}
	if dl := q.dl.Load(); dl != 0 && time.Now().UnixNano() >= dl {
		return ErrDeadlineExceeded
	}
	q.mu.Lock()
	err := q.kill
	q.mu.Unlock()
	return err
}

// Exhaust latches err (first writer wins) so the query fails at its
// next boundary. Used by tests and external shed policies.
func (q *Quota) Exhaust(err error) {
	if q == nil || err == nil {
		return
	}
	q.mu.Lock()
	if q.kill == nil {
		q.kill = err
	}
	q.mu.Unlock()
}

// SetDeadline installs the query's deadline; the zero time clears it.
func (q *Quota) SetDeadline(t time.Time) {
	if q == nil {
		return
	}
	if t.IsZero() {
		q.dl.Store(0)
		return
	}
	q.dl.Store(t.UnixNano())
}

// Used returns the bytes currently charged.
func (q *Quota) Used() int64 {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.used
}

// Peak returns the query's high-water charge.
func (q *Quota) Peak() int64 {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.peak
}

// Budget returns the per-query byte budget (0 = unlimited).
func (q *Quota) Budget() int64 {
	if q == nil {
		return 0
	}
	return q.budget
}

// ctxKey keys the quota in a context.
type ctxKey struct{}

// WithQuota returns a context carrying q. A nil q returns ctx unchanged
// so ungoverned queries don't pay a context allocation. ctx must be the
// query's own context — the quota rides the request's cancellation
// chain, never a detached one.
func WithQuota(ctx context.Context, q *Quota) context.Context {
	if q == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, q)
}

// FromContext extracts the query's quota, nil (free) when absent. A nil
// context is valid and returns nil.
func FromContext(ctx context.Context) *Quota {
	if ctx == nil {
		return nil
	}
	q, _ := ctx.Value(ctxKey{}).(*Quota)
	return q
}
