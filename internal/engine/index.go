package engine

import (
	"slices"

	"amnesiadb/internal/bitvec"
	"amnesiadb/internal/column"
	"amnesiadb/internal/expr"
)

// indexPlan is a scan answered from the column's value-order index: the
// indexed positions in the predicate's bounding interval, plus a scan of
// the rows the index does not cover yet, [covered, Len).
type indexPlan struct {
	cand    []int32
	covered int
}

// planIndex picks a scan's access path: the index whenever its exact
// candidate count is at most one batch. A column of at least one morsel
// without an index gets one, once, for the first query its zone maps'
// global min/max estimate at one batch or less; a reader that finds the
// build taken scans. Both thresholds are properties of the input, so the
// access path has no knob.
func planIndex(c *column.Int64, pred expr.Expr) (indexPlan, bool) {
	lo, hi, _ := pred.Bounds()
	cand, covered, ok := c.IndexRange(lo, hi)
	if !ok {
		if c.Len() < TaskMinRows || c.EstimateRange(lo, hi) > BatchSize || !c.BuildIndex(TaskMinRows) {
			return indexPlan{}, false
		}
		cand, covered, _ = c.IndexRange(lo, hi)
	}
	return indexPlan{cand: cand, covered: covered}, len(cand) <= BatchSize
}

// scan returns what the morsel scan would — pooled batches of qualifying
// positions, ascending, with their values: the candidates still active,
// back in position order and through pred's filter, then the tail.
func (p indexPlan) scan(c *column.Int64, pred expr.Expr, active *bitvec.Vector) []*Batch {
	var out []*Batch
	b := GetBatch()
	n := 0
	for _, r := range p.cand {
		if active == nil || active.Test(int(r)) {
			b.Sel[n] = r
			n++
		}
	}
	slices.Sort(b.Sel[:n])
	c.Gather(b.Sel[:n], b.Val)
	if _, _, exact := pred.Bounds(); !exact {
		n = expr.Filter(pred, b.Sel, b.Val, n)
	}
	if n == 0 {
		PutBatch(b)
	} else {
		b.Sel, b.Val = b.Sel[:n], b.Val[:n]
		out = append(out, b)
	}
	return append(out, collectChunks(c, pred, active, p.covered, c.Len())...)
}
