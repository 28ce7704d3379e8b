package sql

import (
	"cmp"
	"context"
	"slices"

	"amnesiadb/internal/engine"
	"amnesiadb/internal/engine/governor"
	"amnesiadb/internal/engine/sched"
)

// sortRunRows is the run granularity for ORDER BY: qualifying rows are
// split into contiguous runs of this many entries, each sorted
// independently (in parallel when the knob allows) and merged with a
// k-way heap. Runs are morsel-sized so the sort pipelines with the
// morsel-parallel scan that produced the rows.
const sortRunRows = 64 * 1024

// orderPerm returns the permutation that orders keys — ascending, or
// descending when desc — truncated to limit when limit >= 0 (limit < 0
// means no LIMIT clause). Ties keep input order (keys is in insertion
// order on entry), matching what a stable full sort produces, so every
// (parallelism, limit) combination returns a byte-identical prefix of
// the same total order. Callers apply the permutation to whatever runs
// parallel to keys — selection vectors, value vectors, join rows — so
// one sort serves scans and joins alike.
//
// The shape is the classic external-sort one, run in memory: contiguous
// runs are sorted independently — in parallel when the knob allows —
// and a k-way heap merges the run heads. A LIMIT turns the merge into
// top-k: each sorted run is clipped to its first limit entries (a run
// cannot contribute more than that to the global top) and the merge
// stops after emitting limit rows.
//
// The sort is a barrier, so it honours request cancellation: a
// cancelled ctx abandons runs not yet started and returns ctx.Err().
func orderPerm(ctx context.Context, keys []int64, desc bool, limit, par int, sp *sched.Pool) ([]int, error) {
	n := len(keys)
	k := n
	if limit >= 0 && limit < n {
		k = limit
	}
	if k == 0 {
		return nil, nil
	}

	// The sort's working set — per-run permutations plus the merged
	// output — is charged against the query's quota for the barrier's
	// duration, so an ORDER BY over an over-budget qualifying set dies
	// here instead of allocating the runs.
	quota := governor.FromContext(ctx)
	sortBytes := int64(n+k) * 8
	if err := quota.Acquire(sortBytes); err != nil {
		return nil, err
	}
	defer quota.Release(sortBytes)

	nRuns := (n + sortRunRows - 1) / sortRunRows
	runs := make([][]int, nRuns) // per-run permutations of global indices
	err := engine.ForEachTask(ctx, sp, engine.Workers(sp, par, n, engine.TaskMinRows), nRuns, func(_, r int) {
		start := r * sortRunRows
		end := start + sortRunRows
		if end > n {
			end = n
		}
		perm := make([]int, end-start)
		for i := range perm {
			perm[i] = start + i
		}
		slices.SortFunc(perm, func(a, b int) int {
			if c := cmp.Compare(keys[a], keys[b]); c != 0 {
				if desc {
					return -c
				}
				return c
			}
			return a - b // unique indices: stable and exact
		})
		if limit >= 0 && limit < len(perm) {
			perm = perm[:limit]
		}
		runs[r] = perm
	})
	if err != nil {
		return nil, err
	}

	if nRuns == 1 {
		return runs[0], nil
	}

	// K-way merge: a binary heap of run cursors ordered by head key,
	// ties broken by run index — runs are position-ordered, so this
	// preserves the global insertion-order tie-break.
	h := &runHeap{keys: keys, desc: desc}
	for r, perm := range runs {
		if len(perm) > 0 {
			h.push(runCursor{run: r, perm: perm})
		}
	}
	out := make([]int, 0, k)
	for len(out) < k && h.len() > 0 {
		top := &h.cur[0]
		out = append(out, top.perm[0])
		top.perm = top.perm[1:]
		if len(top.perm) == 0 {
			h.pop()
		} else {
			h.fix()
		}
	}
	return out, nil
}

// runCursor is one sorted run's remaining entries.
type runCursor struct {
	run  int
	perm []int
}

// runHeap is a hand-rolled binary min-heap (max-heap under desc) over
// run heads; small enough that container/heap's interface indirection
// is not worth it.
type runHeap struct {
	cur  []runCursor
	keys []int64
	desc bool
}

func (h *runHeap) len() int { return len(h.cur) }

// less orders cursor heads: by key, then by run index for stability.
func (h *runHeap) less(a, b runCursor) bool {
	ka, kb := h.keys[a.perm[0]], h.keys[b.perm[0]]
	if ka != kb {
		if h.desc {
			return ka > kb
		}
		return ka < kb
	}
	return a.run < b.run
}

func (h *runHeap) push(c runCursor) {
	h.cur = append(h.cur, c)
	i := len(h.cur) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.cur[i], h.cur[parent]) {
			break
		}
		h.cur[i], h.cur[parent] = h.cur[parent], h.cur[i]
		i = parent
	}
}

func (h *runHeap) pop() {
	last := len(h.cur) - 1
	h.cur[0] = h.cur[last]
	h.cur = h.cur[:last]
	h.fix()
}

// fix restores the heap property after the root's head advanced.
func (h *runHeap) fix() {
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.cur) && h.less(h.cur[l], h.cur[smallest]) {
			smallest = l
		}
		if r < len(h.cur) && h.less(h.cur[r], h.cur[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.cur[i], h.cur[smallest] = h.cur[smallest], h.cur[i]
		i = smallest
	}
}
