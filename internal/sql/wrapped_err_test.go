package sql

// Regression test for the senterr fix in execAggregateStream: relations
// may wrap engine.ErrNoRows with shard context, so the empty-set
// detection must use errors.Is, not ==. Before the fix a wrapped
// sentinel surfaced as a query error instead of the SQL empty-set
// semantics.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"amnesiadb/internal/engine"
	"amnesiadb/internal/expr"
)

// wrappedNoRowsRel decorates a Relation so Aggregate reports the empty
// qualifying set the way a partitioned shard does: sentinel wrapped in
// positional context.
type wrappedNoRowsRel struct{ Relation }

func (r wrappedNoRowsRel) Aggregate(_ context.Context, col string, pred expr.Expr, par int) (*engine.AggResult, error) {
	return nil, fmt.Errorf("shard 3: %w", engine.ErrNoRows)
}

func TestAggregateWrappedErrNoRows(t *testing.T) {
	base := catalog(t, 10, 20, 30)
	cat := CatalogFunc(func(name string) (Relation, error) {
		rel, err := base.Lookup(name)
		if err != nil {
			return nil, err
		}
		return wrappedNoRowsRel{rel}, nil
	})

	res, err := Run(cat, "SELECT COUNT(*) FROM t WHERE a > 100")
	if err != nil {
		t.Fatalf("COUNT over wrapped ErrNoRows: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != 0 {
		t.Fatalf("COUNT rows = %v, want [[0]]", res.Rows)
	}

	res, err = Run(cat, "SELECT AVG(a) FROM t WHERE a > 100")
	if err != nil {
		t.Fatalf("AVG over wrapped ErrNoRows: %v", err)
	}
	if len(res.Rows) != 1 || !math.IsNaN(res.Rows[0][0]) {
		t.Fatalf("AVG rows = %v, want one NaN row", res.Rows)
	}
}
