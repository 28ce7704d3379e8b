package amnesia

import (
	"sort"

	"amnesiadb/internal/table"
	"amnesiadb/internal/xrand"
)

// AreaValue is the value-space reading of the §3.3 area strategy: mold
// grows over the *value domain* rather than over tuple insertion
// positions (the paper's "database tiling" is ambiguous between the two;
// Area implements the position reading that matches Figure 1's timeline
// holes, AreaValue the reading that produces §4.2's "a smaller fragment
// of range queries is affected").
//
// Forgetting clusters into K contiguous value intervals, so range queries
// either fall inside a hole (rare when query candidates follow the active
// data) or see an almost intact neighbourhood. See the fig3x ablation
// experiment.
type AreaValue struct {
	src *xrand.Source
	col string
	k   int
	// areas holds the inclusive value extents of each mold.
	areas []vextent
	out   []int
}

type vextent struct {
	lo, hi int64
}

// NewAreaValue returns the value-space area strategy with k concurrent
// molds over column col.
func NewAreaValue(src *xrand.Source, col string, k int) *AreaValue {
	if src == nil {
		panic("amnesia: NewAreaValue with nil source")
	}
	if col == "" {
		panic("amnesia: NewAreaValue with empty column name")
	}
	if k < 1 {
		panic("amnesia: NewAreaValue with k < 1")
	}
	return &AreaValue{src: src, col: col, k: k}
}

// Name implements Strategy.
func (*AreaValue) Name() string { return "areav" }

// Areas returns a copy of the current mold value extents.
func (a *AreaValue) Areas() [][2]int64 {
	out := make([][2]int64, len(a.areas))
	for i, e := range a.areas {
		out[i] = [2]int64{e.lo, e.hi}
	}
	return out
}

// valEntry is one active tuple in value order.
type valEntry struct {
	val  int64
	pos  int
	used bool
}

// Forget implements Strategy.
func (a *AreaValue) Forget(t *table.Table, n int) []int {
	n = clampBudget(t, n)
	a.out = a.out[:0]
	if n == 0 {
		return a.out
	}
	c, err := t.Column(a.col)
	if err != nil {
		panic(err)
	}
	active := t.ActiveIndices()
	arr := make([]valEntry, len(active))
	for i, p := range active {
		arr[i] = valEntry{val: c.Get(p), pos: p}
	}
	sort.Slice(arr, func(i, j int) bool { return arr[i].val < arr[j].val })

	remaining := len(arr)
	for len(a.out) < n && remaining > 0 {
		a.step(arr, &remaining)
	}
	t.ForgetMany(a.out)
	return a.out
}

// step performs one mold action.
func (a *AreaValue) step(arr []valEntry, remaining *int) {
	pick := a.src.Intn(a.k + 1)
	if pick >= len(a.areas) {
		a.seedValue(arr, remaining)
		return
	}
	a.extendValue(arr, remaining, pick)
}

// seedValue starts a new mold at a random still-active entry.
func (a *AreaValue) seedValue(arr []valEntry, remaining *int) {
	if *remaining == 0 {
		return
	}
	for {
		i := a.src.Intn(len(arr))
		if arr[i].used {
			continue
		}
		a.consume(arr, i, remaining)
		a.areas = append(a.areas, vextent{lo: arr[i].val, hi: arr[i].val})
		if len(a.areas) > a.k {
			a.areas = a.areas[1:]
		}
		return
	}
}

// extendValue grows mold i by the nearest unused entry just outside its
// value extent, trying a random direction first.
func (a *AreaValue) extendValue(arr []valEntry, remaining *int, i int) {
	e := &a.areas[i]
	dirFirst := a.src.Bool(0.5)
	for attempt := 0; attempt < 2; attempt++ {
		left := dirFirst == (attempt == 0)
		if left {
			// Last unused entry with val <= e.lo, scanning downward
			// from the first entry >= e.lo.
			j := sort.Search(len(arr), func(k int) bool { return arr[k].val >= e.lo })
			for j--; j >= 0; j-- {
				if !arr[j].used {
					a.consume(arr, j, remaining)
					e.lo = arr[j].val
					return
				}
			}
		} else {
			j := sort.Search(len(arr), func(k int) bool { return arr[k].val > e.hi })
			for ; j < len(arr); j++ {
				if !arr[j].used {
					a.consume(arr, j, remaining)
					e.hi = arr[j].val
					return
				}
			}
		}
	}
	// Both directions exhausted; consume interior duplicates still
	// active inside the extent, else seed elsewhere.
	lo := sort.Search(len(arr), func(k int) bool { return arr[k].val >= e.lo })
	hi := sort.Search(len(arr), func(k int) bool { return arr[k].val > e.hi })
	for j := lo; j < hi; j++ {
		if !arr[j].used {
			a.consume(arr, j, remaining)
			return
		}
	}
	a.seedValue(arr, remaining)
}

func (a *AreaValue) consume(arr []valEntry, i int, remaining *int) {
	a.out = append(a.out, arr[i].pos)
	arr[i].used = true
	*remaining--
}
