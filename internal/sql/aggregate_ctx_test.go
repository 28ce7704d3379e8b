package sql

// Aggregates and COUNT(*) run under the request context: a query whose
// context is already done is refused with the typed cause before it
// touches anything, and one cancelled mid-flight stops at its next
// morsel instead of folding the rest of the column.

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"amnesiadb/internal/engine"
	"amnesiadb/internal/engine/governor"
	"amnesiadb/internal/table"
)

func TestAggregateRefusesDoneContext(t *testing.T) {
	flat := table.New("t", "a")
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = int64(i % 1000)
	}
	if _, err := flat.AppendSingleColumn(vals); err != nil {
		t.Fatal(err)
	}
	set, partCat := partFixture(t, 4)
	tables := []*table.Table{flat}
	for _, p := range set.Partitions() {
		tables = append(tables, p.Table())
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, release := context.WithDeadlineCause(context.Background(), time.Now().Add(-time.Second), governor.ErrDeadlineExceeded)
	defer release()

	for _, tc := range []struct {
		name  string
		cat   Catalog
		query string
		ctx   context.Context
		want  error
	}{
		{"flat/sum/cancelled", tableCatalog(flat), "SELECT SUM(a) FROM t WHERE a < 500", cancelled, context.Canceled},
		{"flat/count/cancelled", tableCatalog(flat), "SELECT COUNT(*) FROM t", cancelled, context.Canceled},
		{"flat/sum/expired", tableCatalog(flat), "SELECT SUM(a) FROM t WHERE a < 500", expired, governor.ErrDeadlineExceeded},
		{"flat/count/expired", tableCatalog(flat), "SELECT COUNT(*) FROM t", expired, governor.ErrDeadlineExceeded},
		{"partitioned/sum/cancelled", partCat, "SELECT SUM(v) FROM p WHERE v < 900", cancelled, context.Canceled},
		{"partitioned/count/cancelled", partCat, "SELECT COUNT(*) FROM p", cancelled, context.Canceled},
		{"partitioned/sum/expired", partCat, "SELECT SUM(v) FROM p WHERE v < 900", expired, governor.ErrDeadlineExceeded},
		{"partitioned/count/expired", partCat, "SELECT COUNT(*) FROM p", expired, governor.ErrDeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, par := range []int{1, 0, 4} {
				if _, err := RunOpts(tc.cat, tc.query, Opts{Ctx: tc.ctx, Parallelism: par}); !errors.Is(err, tc.want) {
					t.Fatalf("par=%d: err = %v, want %v", par, err, tc.want)
				}
			}
		})
	}
	for _, tb := range tables {
		for i := 0; i < tb.Len(); i++ {
			if n := tb.AccessCount(i); n != 0 {
				t.Fatalf("table %s row %d touched %d times by refused aggregates", tb.Name(), i, n)
			}
		}
	}
}

// cancellingPred is an inexact predicate that cancels its query the
// first time it is evaluated and counts every evaluation after.
type cancellingPred struct {
	cancel context.CancelFunc
	evals  *atomic.Int64
}

func (p cancellingPred) Eval(int64) bool {
	if p.evals.Add(1) == 1 {
		p.cancel()
	}
	return true
}
func (cancellingPred) Bounds() (int64, int64, bool) { return math.MinInt64, math.MaxInt64, false }
func (cancellingPred) String() string               { return "cancelling" }

func TestAggregateStopsAtMorselBoundaryOnCancel(t *testing.T) {
	const rows = 1<<20 + 1 // sixteen full morsels and a one-row seventeenth
	tb := table.New("t", "a")
	if _, err := tb.AppendSingleColumn(make([]int64, rows)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pred := cancellingPred{cancel: cancel, evals: new(atomic.Int64)}
	_, err := NewTableRelation(tb).Aggregate(ctx, "a", pred, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("aggregate cancelled from its first morsel: err = %v, want context.Canceled", err)
	}
	morsel := int64(engine.MorselBlocks * tb.MustColumn("a").BlockSize())
	if got := pred.evals.Load(); got != morsel {
		t.Fatalf("predicate evaluated %d rows after a first-morsel cancel, want exactly one morsel (%d of %d rows)", got, morsel, rows)
	}
}
