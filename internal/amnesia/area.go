package amnesia

import (
	"amnesiadb/internal/table"
	"amnesiadb/internal/xrand"
)

// DefaultAreaCount is the number of concurrently growing mold areas (K in
// §3.3) used by New.
const DefaultAreaCount = 4

// Area is the spatially biased strategy of §3.3: forgetting mimics mold
// growing on the storage surface. The strategy keeps a list of K areas of
// forgotten tuples. For each tuple to forget it draws n in 1..K+1; n = K+1
// seeds a new mold at a random active tuple, otherwise the n-th area is
// extended in either direction to the nearest active tuple. The bias
// toward existing holes mirrors the spatial correlation of magnetic-disk
// errors the paper cites.
type Area struct {
	src *xrand.Source
	k   int
	// areas holds the inclusive tuple-position extent of each mold.
	// Extents only grow; they are kept across update batches so mold
	// persists on the timeline.
	areas []extent
	out   []int
}

type extent struct {
	lo, hi int
}

// NewArea returns the area strategy with k concurrent mold areas (K >= 1).
func NewArea(src *xrand.Source, k int) *Area {
	if src == nil {
		panic("amnesia: NewArea with nil source")
	}
	if k < 1 {
		panic("amnesia: NewArea with k < 1")
	}
	return &Area{src: src, k: k}
}

// Name implements Strategy.
func (*Area) Name() string { return "area" }

// Areas returns a copy of the current mold extents as (lo, hi) inclusive
// position pairs; exposed for tests and visualisation.
func (a *Area) Areas() [][2]int {
	out := make([][2]int, len(a.areas))
	for i, e := range a.areas {
		out[i] = [2]int{e.lo, e.hi}
	}
	return out
}

// Forget implements Strategy.
func (a *Area) Forget(t *table.Table, n int) []int {
	n = clampBudget(t, n)
	a.out = a.out[:0]
	for len(a.out) < n {
		a.forgetOne(t)
	}
	return a.out
}

// forget marks p, which the next seed or extension must already see as
// forgotten, and records it.
func (a *Area) forget(t *table.Table, p int) {
	t.Forget(p)
	a.out = append(a.out, p)
}

// forgetOne performs one mold step: seed or extend.
func (a *Area) forgetOne(t *table.Table) {
	pick := a.src.Intn(a.k + 1) // 0..k-1 extend, k seed
	if pick >= len(a.areas) {
		a.seed(t)
		return
	}
	a.extend(t, pick)
}

// seed starts a new mold at a uniformly chosen active tuple.
func (a *Area) seed(t *table.Table) {
	active := t.ActiveIndices()
	if len(active) == 0 {
		return
	}
	p := active[a.src.Intn(len(active))]
	a.forget(t, p)
	a.areas = append(a.areas, extent{lo: p, hi: p})
	// Respect the configured K by dropping the oldest area once K molds
	// exist; the dropped area's tuples stay forgotten, it just stops
	// growing ("old mold dries out").
	if len(a.areas) > a.k {
		a.areas = a.areas[1:]
	}
}

// extend grows area i by one active tuple in a random direction, falling
// back to the other direction at the timeline edges.
func (a *Area) extend(t *table.Table, i int) {
	e := &a.areas[i]
	dirFirst := a.src.Bool(0.5)
	for attempt := 0; attempt < 2; attempt++ {
		left := dirFirst == (attempt == 0)
		if left {
			// nearest active tuple strictly before the extent
			if p := prevActive(t, e.lo-1); p >= 0 {
				a.forget(t, p)
				e.lo = p
				return
			}
		} else {
			if p := t.Active().NextSet(e.hi + 1); p >= 0 {
				a.forget(t, p)
				e.hi = p
				return
			}
		}
	}
	// Both directions blocked (area swallowed the whole table side);
	// seed elsewhere instead so progress is guaranteed.
	a.seed(t)
}

// prevActive returns the largest active position <= i, or -1.
func prevActive(t *table.Table, i int) int {
	for ; i >= 0; i-- {
		if t.IsActive(i) {
			return i
		}
	}
	return -1
}
