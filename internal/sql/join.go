package sql

import (
	"amnesiadb/internal/engine"
	"amnesiadb/internal/expr"
)

// joinSide pairs a join input's name with its relation; side 0 is the
// FROM table, side 1 the JOIN table.
type joinSide struct {
	name string
	rel  *TableRelation
	key  string
}

// joinCol is one projected column of a join, resolved to its side.
type joinCol struct {
	side int
	name string
}

// resolveJoinRef maps a column reference to one of the two join sides:
// by qualifier when present (the FROM side wins a self-join tie), by
// unambiguous column membership otherwise.
func resolveJoinRef(sides [2]joinSide, ref ColRef) (joinCol, error) {
	if ref.Table != "" {
		for s, js := range sides {
			if ref.Table == js.name {
				if !hasColumn(js.rel, ref.Name) {
					return joinCol{}, badQueryf("relation %q has no column %q", js.name, ref.Name)
				}
				return joinCol{side: s, name: ref.Name}, nil
			}
		}
		return joinCol{}, badQueryf("unknown table qualifier %q in %q", ref.Table, ref)
	}
	inL, inR := hasColumn(sides[0].rel, ref.Name), hasColumn(sides[1].rel, ref.Name)
	switch {
	case inL && inR:
		return joinCol{}, badQueryf("column %q is ambiguous between %q and %q", ref.Name, sides[0].name, sides[1].name)
	case inL:
		return joinCol{side: 0, name: ref.Name}, nil
	case inR:
		return joinCol{side: 1, name: ref.Name}, nil
	default:
		return joinCol{}, badQueryf("no joined relation has column %q", ref.Name)
	}
}

// execJoinStream executes SELECT ... FROM a JOIN b ON a.x = b.y riding
// the morsel-parallel hash join: both sides are collected by the
// parallel scan, the join runs at the configured parallelism, and the
// matched pairs stream through per-window projection — each output
// window gathers its qualified columns from the owning side's table.
// Output order is engine.HashJoin's probe order, so results are
// byte-identical to the engine's direct join at every parallelism.
func execJoinStream(cat Catalog, q *Query, o Opts) (*ResultStream, error) {
	if q.Aggregate != nil {
		return nil, badQueryf("aggregates over JOIN are not supported")
	}
	if q.Star {
		return nil, badQueryf("JOIN projection must name qualified columns, not *")
	}
	var sides [2]joinSide
	for s, name := range []string{q.Table, q.Join.Table} {
		rel, err := cat.Lookup(name)
		if err != nil {
			return nil, err
		}
		tr, ok := rel.(*TableRelation)
		if !ok {
			return nil, badQueryf("JOIN requires flat tables; %q is %s", name, rel.Kind())
		}
		sides[s] = joinSide{name: name, rel: tr}
	}
	sides[0].key, sides[1].key = q.Join.LeftCol, q.Join.RightCol
	for _, js := range sides {
		if !hasColumn(js.rel, js.key) {
			return nil, badQueryf("relation %q has no join key column %q", js.name, js.key)
		}
	}
	proj := make([]joinCol, len(q.Columns))
	headers := make([]string, len(q.Columns))
	ints := make([]bool, len(q.Columns))
	for i, ref := range q.Columns {
		jc, err := resolveJoinRef(sides, ref)
		if err != nil {
			return nil, err
		}
		proj[i] = jc
		headers[i] = ref.String()
		ints[i] = true
	}
	pred := q.Where
	if pred == nil {
		pred = expr.True{}
	} else {
		// The predicate restricts the join key (the §2.2 one-attribute
		// subspace lifted to joins): HashJoin applies it to both
		// sides' key collection, so WHERE must name the key.
		jc, err := resolveJoinRef(sides, q.WhereCol)
		if err != nil {
			return nil, err
		}
		if jc.name != sides[jc.side].key {
			return nil, badQueryf("JOIN WHERE may reference only the join key, not %q", q.WhereCol)
		}
	}
	var order joinCol
	hasOrder := q.OrderBy.Name != ""
	if hasOrder {
		jc, err := resolveJoinRef(sides, q.OrderBy)
		if err != nil {
			return nil, err
		}
		order = jc
	}
	limit := queryLimit(q)
	if limit == 0 {
		return emptyStream(headers, ints), nil
	}

	// The join pipelines internally: both side collections stream
	// concurrently and the predicted build side scatters as chunks
	// arrive. A cancelled request context tears the collections down.
	jr, err := engine.HashJoin(o.context(), o.Sched, sides[0].rel.tbl, sides[0].key, sides[1].rel.tbl, sides[1].key, pred, engine.ScanActive, o.Parallelism)
	if err != nil {
		return nil, err
	}
	rows := jr.Rows
	if hasOrder {
		keys, err := sides[order.side].rel.Gather(order.name, sidePositions(rows, order.side, nil), nil)
		if err != nil {
			return nil, err
		}
		perm, err := orderPerm(o.context(), keys, q.OrderDesc, limit, o.Parallelism, o.Sched)
		if err != nil {
			return nil, err
		}
		sorted := make([]engine.JoinRow, len(perm))
		for i, p := range perm {
			sorted[i] = rows[p]
		}
		rows = sorted
	} else if limit > 0 && limit < len(rows) {
		rows = rows[:limit]
	}

	pos := 0
	var posBuf [2][]int32
	out := intChunk(len(proj), min(len(rows), StreamChunkRows))
	next := func() (*Chunk, error) {
		if pos >= len(rows) {
			return nil, nil
		}
		end := min(pos+StreamChunkRows, len(rows))
		window := rows[pos:end]
		pos = end
		out.reset()
		// Gather each projected column from its side over the window's
		// positions; the two position vectors are built at most once
		// per window.
		var havePos [2]bool
		for ci, jc := range proj {
			if !havePos[jc.side] {
				posBuf[jc.side] = sidePositions(window, jc.side, posBuf[jc.side][:0])
				havePos[jc.side] = true
			}
			var err error
			col := &out.Cols[ci]
			if col.Ints, err = gatherAppend(sides[jc.side].rel, jc.name, posBuf[jc.side], col.Ints); err != nil {
				return nil, err
			}
		}
		out.Len = len(window)
		return out, nil
	}
	return newResultStream(headers, ints, next), nil
}

// sidePositions extracts one side's tuple positions from joined rows.
func sidePositions(rows []engine.JoinRow, side int, buf []int32) []int32 {
	for _, r := range rows {
		if side == 0 {
			buf = append(buf, r.Left)
		} else {
			buf = append(buf, r.Right)
		}
	}
	return buf
}
