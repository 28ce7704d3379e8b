package engine

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"amnesiadb/internal/bitvec"
	"amnesiadb/internal/expr"
)

// Group is one bucket of a grouped aggregation.
type Group struct {
	// Key is the group's value: for GroupByValue the attribute value
	// itself, for GroupByBucket the bucket's lower bound.
	Key int64
	// Agg carries COUNT/SUM/AVG/MIN/MAX over the group's members.
	Rows int
	Sum  int64
	Min  int64
	Max  int64
	Avg  float64
}

// GroupByValue aggregates column col grouped by its exact values over
// tuples satisfying pred under mode, returning groups in ascending key
// order. With amnesia active, whole groups can silently vanish when all
// their members are forgotten — the grouped flavour of incomplete
// results.
func (e *Exec) GroupByValue(col string, pred expr.Expr, mode ScanMode) ([]Group, error) {
	return e.groupBy(col, pred, mode, 0)
}

// GroupByBucket aggregates column col into equi-width buckets of the
// given width (> 0), the typical form of the paper's "aggregated
// summaries over scientific data".
func (e *Exec) GroupByBucket(col string, pred expr.Expr, mode ScanMode, width int64) ([]Group, error) {
	if width <= 0 {
		return nil, fmt.Errorf("engine: bucket width %d must be positive", width)
	}
	return e.groupBy(col, pred, mode, width)
}

// groupBy folds each scan batch straight into a per-worker group hash
// table over the one morsel loop and merges the tables before the sort
// by key, so worker interleaving never shows. Rows are only retained
// when the access-frequency feedback needs them: collected per morsel
// and flushed in one TouchMany, in morsel order.
func (e *Exec) groupBy(col string, pred expr.Expr, mode ScanMode, width int64) ([]Group, error) {
	c, err := e.t.Column(col)
	if err != nil {
		return nil, err
	}
	var active *bitvec.Vector
	if mode == ScanActive {
		active = e.t.Active()
	}
	lo, hi, exact := pred.Bounds()
	rowsPer, nm := morselGeometry(c)
	workers := e.workersFor(c.Len())
	maps := make([]map[int64]*Group, workers)
	for w := range maps {
		maps[w] = make(map[int64]*Group)
	}
	var touched [][]int32
	if e.touch && mode == ScanActive {
		touched = make([][]int32, nm)
	}
	err = ForEachTask(e.ctx, e.sched, workers, nm, func(w, m int) {
		scanMorselBatches(c, lo, hi, exact, pred, active, m*rowsPer, (m+1)*rowsPer, func(sel []int32, val []int64) {
			if touched != nil {
				touched[m] = append(touched[m], sel...)
			}
			foldGroups(maps[w], val, width)
		})
	})
	if err != nil {
		return nil, err
	}
	byKey := maps[0]
	for _, part := range maps[1:] {
		for key, g := range part {
			mg, ok := byKey[key]
			if !ok {
				byKey[key] = g
				continue
			}
			mg.Rows += g.Rows
			mg.Sum += g.Sum
			mg.Min = min(mg.Min, g.Min)
			mg.Max = max(mg.Max, g.Max)
		}
	}
	out := make([]Group, 0, len(byKey))
	for _, g := range byKey {
		g.Avg = float64(g.Sum) / float64(g.Rows)
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	if touched != nil {
		e.t.TouchMany(slices.Concat(touched...))
	}
	return out, nil
}

// foldGroups accumulates one batch of values into the group table,
// bucketing by width when positive (floor division, so negative values
// land in the bucket below zero, not above).
func foldGroups(byKey map[int64]*Group, val []int64, width int64) {
	for _, v := range val {
		key := v
		if width > 0 {
			key = v / width * width
			if v < 0 && v%width != 0 {
				key -= width
			}
		}
		g, ok := byKey[key]
		if !ok {
			g = &Group{Key: key, Min: math.MaxInt64, Max: math.MinInt64}
			byKey[key] = g
		}
		g.Rows++
		g.Sum += v
		if v < g.Min {
			g.Min = v
		}
		if v > g.Max {
			g.Max = v
		}
	}
}
