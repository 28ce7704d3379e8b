// Package index provides the auxiliary access path §4.4 discusses as an
// amnesia candidate: a sorted secondary index mapping values to tuple
// positions. It can prune forgotten tuples ("stop indexing the forgotten
// data": an index-based evaluation skips them while a complete scan still
// fetches everything), and it can be dropped and recreated on demand —
// the MonetDB-style knobless space reclamation the paper mentions. Block
// range summaries live with the data: see internal/column's zone maps.
package index

import (
	"sort"

	"amnesiadb/internal/table"
)

// Sorted is a secondary index: (value, position) pairs in value order over
// the active tuples at build time. Lookups are binary searches; forgotten
// tuples can be pruned in place without a full rebuild.
type Sorted struct {
	col  string
	vals []int64
	pos  []int32
	rows int
}

// NewSorted builds a sorted index over the named column of t, indexing
// only active tuples.
func NewSorted(t *table.Table, col string) (*Sorted, error) {
	s := &Sorted{col: col}
	if err := s.Rebuild(t); err != nil {
		return nil, err
	}
	return s, nil
}

// Rebuild re-derives the index from the current table state.
func (s *Sorted) Rebuild(t *table.Table) error {
	c, err := t.Column(s.col)
	if err != nil {
		return err
	}
	s.rows = c.Len()
	s.vals = s.vals[:0]
	s.pos = s.pos[:0]
	for _, i := range t.ActiveIndices() {
		s.vals = append(s.vals, c.Get(i))
		s.pos = append(s.pos, int32(i))
	}
	sort.Sort((*byValue)(s))
	return nil
}

type byValue Sorted

func (s *byValue) Len() int { return len(s.vals) }
func (s *byValue) Less(i, j int) bool {
	if s.vals[i] != s.vals[j] {
		return s.vals[i] < s.vals[j]
	}
	return s.pos[i] < s.pos[j]
}
func (s *byValue) Swap(i, j int) {
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
	s.pos[i], s.pos[j] = s.pos[j], s.pos[i]
}

// Entries returns the number of indexed tuples.
func (s *Sorted) Entries() int { return len(s.vals) }

// Scan returns the positions of indexed tuples with lo <= v < hi, in
// ascending position order. Tuples forgotten after the last rebuild or
// prune are filtered out against the live bitmap.
func (s *Sorted) Scan(t *table.Table, lo, hi int64) []int32 {
	from := sort.Search(len(s.vals), func(i int) bool { return s.vals[i] >= lo })
	to := sort.Search(len(s.vals), func(i int) bool { return s.vals[i] >= hi })
	out := make([]int32, 0, to-from)
	for i := from; i < to; i++ {
		if t.IsActive(int(s.pos[i])) {
			out = append(out, s.pos[i])
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// PruneForgotten removes entries whose tuples are no longer active,
// shrinking the index without a rebuild. It returns the number of entries
// removed — the paper's "removal from indexes" fate of forgotten data.
func (s *Sorted) PruneForgotten(t *table.Table) int {
	w := 0
	for i := range s.vals {
		if t.IsActive(int(s.pos[i])) {
			s.vals[w] = s.vals[i]
			s.pos[w] = s.pos[i]
			w++
		}
	}
	removed := len(s.vals) - w
	s.vals = s.vals[:w]
	s.pos = s.pos[:w]
	return removed
}

// SizeBytes estimates the index footprint (8-byte value + 4-byte position
// per entry).
func (s *Sorted) SizeBytes() int { return len(s.vals) * 12 }
