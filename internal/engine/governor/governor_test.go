package governor

import (
	"context"
	"errors"
	"testing"
	"time"

	"amnesiadb/internal/durability/failpoint"
)

// A nil quota must absorb every operation for free: the engine charges
// unconditionally and ungoverned queries ride the nil path.
func TestNilQuotaIsFree(t *testing.T) {
	var q *Quota
	if err := q.Acquire(1 << 30); err != nil {
		t.Fatalf("nil Acquire: %v", err)
	}
	q.Release(1 << 30)
	if err := q.Check(); err != nil {
		t.Fatalf("nil Check: %v", err)
	}
	q.Exhaust(errors.New("x"))
	q.SetDeadline(time.Now())
	if q.Used() != 0 || q.Peak() != 0 || q.Budget() != 0 {
		t.Fatal("nil quota reported usage")
	}
	var g *Governor
	if g.NewQuota(1) != nil {
		t.Fatal("nil governor handed out a quota")
	}
	g.Remove(nil)
	if s := g.Stats(); s != (Stats{}) {
		t.Fatalf("nil governor stats = %+v", s)
	}
}

func TestBudgetExhaustionLatches(t *testing.T) {
	g := New(0)
	q := g.NewQuota(100)
	defer g.Remove(q)
	if err := q.Acquire(60); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	err := q.Acquire(60)
	if !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("over-budget acquire = %v, want ErrResourceExhausted", err)
	}
	// The failure latched: Check and further acquires fail identically,
	// and the failed acquire charged nothing.
	if cerr := q.Check(); !errors.Is(cerr, ErrResourceExhausted) {
		t.Fatalf("Check after kill = %v", cerr)
	}
	if aerr := q.Acquire(1); !errors.Is(aerr, ErrResourceExhausted) {
		t.Fatalf("acquire after kill = %v", aerr)
	}
	if q.Used() != 60 {
		t.Fatalf("used = %d, want 60 (failed acquire must not charge)", q.Used())
	}
}

func TestReleaseBalancesLedger(t *testing.T) {
	g := New(0)
	q := g.NewQuota(0)
	if err := q.Acquire(40); err != nil {
		t.Fatal(err)
	}
	if got := g.Stats().UsedBytes; got != 40 {
		t.Fatalf("governor usage = %d, want 40", got)
	}
	q.Release(40)
	if got := g.Stats().UsedBytes; got != 0 {
		t.Fatalf("governor usage after release = %d, want 0", got)
	}
	g.Remove(q)
	if got := g.Stats().ActiveQueries; got != 0 {
		t.Fatalf("active queries after remove = %d", got)
	}
}

// Remove must sweep residual charges (abandoned streams) and absorb
// stragglers so the ledger never drifts negative.
func TestRemoveSweepsResidual(t *testing.T) {
	g := New(0)
	q := g.NewQuota(0)
	if err := q.Acquire(64); err != nil {
		t.Fatal(err)
	}
	g.Remove(q)
	if got := g.Stats().UsedBytes; got != 0 {
		t.Fatalf("usage after remove = %d, want 0", got)
	}
	q.Release(64) // late recycle from a pipeline teardown
	if got := g.Stats().UsedBytes; got != 0 {
		t.Fatalf("usage after late release = %d, want 0", got)
	}
	if err := q.Acquire(8); err != nil {
		t.Fatalf("post-remove acquire should absorb, got %v", err)
	}
	if got := g.Stats().UsedBytes; got != 0 {
		t.Fatalf("usage after post-remove acquire = %d, want 0", got)
	}
}

// Crossing the process high-water mark kills the largest query, not the
// small ones.
func TestHighWaterShedsLargestQuery(t *testing.T) {
	g := New(1000)
	big := g.NewQuota(0)
	small := g.NewQuota(0)
	defer g.Remove(big)
	defer g.Remove(small)
	if err := small.Acquire(100); err != nil {
		t.Fatal(err)
	}
	if err := big.Acquire(600); err != nil {
		t.Fatal(err)
	}
	// This acquire pushes the process ledger over 1000. The acquire
	// itself succeeds (the kill lands at the next boundary), but the
	// biggest quota must now carry the latched shed error.
	if err := big.Acquire(400); err != nil {
		t.Fatalf("acquire crossing high-water should succeed locally: %v", err)
	}
	if err := big.Check(); !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("big query not shed: Check = %v", err)
	}
	if err := small.Check(); err != nil {
		t.Fatalf("small query collateral damage: %v", err)
	}
	if got := g.Stats().Sheds; got != 1 {
		t.Fatalf("sheds = %d, want 1", got)
	}
}

func TestDeadline(t *testing.T) {
	g := New(0)
	q := g.NewQuota(0)
	defer g.Remove(q)
	q.SetDeadline(time.Now().Add(time.Hour))
	if err := q.Check(); err != nil {
		t.Fatalf("before deadline: %v", err)
	}
	q.SetDeadline(time.Now().Add(-time.Millisecond))
	if err := q.Check(); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("past deadline: Check = %v, want ErrDeadlineExceeded", err)
	}
	q.SetDeadline(time.Time{})
	if err := q.Check(); err != nil {
		t.Fatalf("cleared deadline: %v", err)
	}
}

func TestContextCarriage(t *testing.T) {
	if FromContext(nil) != nil {
		t.Fatal("nil context yielded a quota")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context yielded a quota")
	}
	g := New(0)
	q := g.NewQuota(0)
	defer g.Remove(q)
	ctx := WithQuota(context.Background(), q)
	if FromContext(ctx) != q {
		t.Fatal("quota did not round-trip through the context")
	}
	if got := WithQuota(ctx, nil); got != ctx {
		t.Fatal("WithQuota(nil) should return ctx unchanged")
	}
}

// The governor.acquire failpoint forces a deterministic kill: the
// injected failure wraps ErrResourceExhausted and latches like a real
// budget exhaustion.
func TestAcquireFailpoint(t *testing.T) {
	defer failpoint.DisableAll()
	if err := failpoint.Arm(FailpointAcquire + "=error"); err != nil {
		t.Fatal(err)
	}
	g := New(0)
	q := g.NewQuota(1 << 40)
	defer g.Remove(q)
	err := q.Acquire(1)
	if !errors.Is(err, ErrResourceExhausted) || !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("failpoint acquire = %v, want ErrResourceExhausted wrapping ErrInjected", err)
	}
	failpoint.Disable(FailpointAcquire)
	// Latched: the site is disarmed but the quota stays dead.
	if err := q.Check(); !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("Check after failpoint kill = %v", err)
	}
}

// error:after:N arms the family's delayed form: N acquires pass, then
// the site fires.
func TestAcquireFailpointAfter(t *testing.T) {
	defer failpoint.DisableAll()
	if err := failpoint.Arm(FailpointAcquire + "=error:after:2"); err != nil {
		t.Fatal(err)
	}
	g := New(0)
	q := g.NewQuota(0)
	defer g.Remove(q)
	for i := 0; i < 2; i++ {
		if err := q.Acquire(1); err != nil {
			t.Fatalf("acquire %d should pass: %v", i, err)
		}
	}
	if err := q.Acquire(1); !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("third acquire = %v, want injected exhaustion", err)
	}
}
