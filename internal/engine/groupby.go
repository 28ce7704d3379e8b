package engine

import (
	"fmt"
	"math"
	"sort"

	"amnesiadb/internal/expr"
	"amnesiadb/internal/table"
)

// Group is one bucket of a grouped aggregation.
type Group struct {
	// Key is the group's value: the attribute value itself when
	// grouping by value, else the bucket's lower bound.
	Key int64
	// Agg carries COUNT/SUM/AVG/MIN/MAX over the group's members.
	Rows int
	Sum  int64
	Min  int64
	Max  int64
	Avg  float64
}

// GroupBy aggregates column col over the tuples satisfying pred under
// mode, grouped by exact value when width is 0 or into equi-width
// buckets of width otherwise — the typical form of the paper's
// "aggregated summaries over scientific data" — and returns the groups
// in ascending key order; a negative width is an error. With amnesia
// active, whole groups can silently vanish when all their members are
// forgotten: the grouped flavour of incomplete results.
//
// It is a fold over one barrier of e's table (see barrier): each task
// folds its part's qualifying batches (see scanPart.batches) — the
// index plan's when planIndex picked the index, the filter pipeline's
// otherwise — into its worker's group table, and the tables merge
// before the sort by key, so worker interleaving never shows. On the
// feedback path each batch's rows are touched with TouchMany as they
// are folded, so, like Aggregate, a cancelled GroupBy may already have
// touched the rows it folded.
func (e *Exec) GroupBy(col string, pred expr.Expr, mode ScanMode, width int64) ([]Group, error) {
	if width < 0 {
		return nil, fmt.Errorf("engine: bucket width %d must not be negative", width)
	}
	parts, err := newParts([]*table.Table{e.t}, col, pred, mode)
	if err != nil {
		return nil, err
	}
	touching := e.touch && mode == ScanActive
	workers, short := e.scanWorkers(parts)
	maps := make([]map[int64]*Group, workers)
	for w := range maps {
		maps[w] = make(map[int64]*Group)
	}
	err = e.barrier(parts, workers, short, func(w int, p scanPart, r rowRange) {
		p.batches(pred, p.active, r, func(sel []int32, val []int64) {
			foldGroups(maps[w], val, width)
			if touching {
				p.t.TouchMany(sel)
			}
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
