package amnesia

import (
	"math"
	"sort"

	"amnesiadb/internal/table"
	"amnesiadb/internal/xrand"
)

// Pairwise implements the §4.4 extension: "the average query could be used
// to identify pairs of tuples to be forgotten instead of a single one. It
// would retain the precision as long as possible." It forgets pairs of
// active tuples whose values are antipodal around the current active mean,
// so AVG over the active set is disturbed as little as possible.
type Pairwise struct {
	src *xrand.Source
	col string
	out []int
}

// NewPairwise returns the average-preserving strategy operating on column
// col.
func NewPairwise(src *xrand.Source, col string) *Pairwise {
	if src == nil {
		panic("amnesia: NewPairwise with nil source")
	}
	if col == "" {
		panic("amnesia: NewPairwise with empty column name")
	}
	return &Pairwise{src: src, col: col}
}

// Name implements Strategy.
func (*Pairwise) Name() string { return "pairwise" }

// Forget implements Strategy.
func (p *Pairwise) Forget(t *table.Table, n int) []int {
	n = clampBudget(t, n)
	p.out = p.out[:0]
	if n == 0 {
		return p.out
	}
	c, err := t.Column(p.col)
	if err != nil {
		panic(err)
	}
	active := t.ActiveIndices()
	// Order active tuples by value; pair extremes inward. The pair
	// (smallest, largest) has the sum closest to 2*mean among available
	// extremes when the distribution is roughly symmetric, and pairing
	// inward keeps the running mean anchored for skewed data too.
	order := make([]int, len(active))
	copy(order, active)
	sort.Slice(order, func(a, b int) bool { return c.Get(order[a]) < c.Get(order[b]) })

	lo, hi := 0, len(order)-1
	for len(p.out)+2 <= n && lo < hi {
		p.out = append(p.out, order[lo], order[hi])
		lo++
		hi--
	}
	if len(p.out) < n && lo <= hi {
		// Odd remainder: forget the tuple whose value is closest to the
		// active mean, the single choice with least impact on AVG.
		var sum float64
		for i := lo; i <= hi; i++ {
			sum += float64(c.Get(order[i]))
		}
		mean := sum / float64(hi-lo+1)
		best, bestDist := lo, math.Inf(1)
		for i := lo; i <= hi; i++ {
			if d := math.Abs(float64(c.Get(order[i])) - mean); d < bestDist {
				best, bestDist = i, d
			}
		}
		p.out = append(p.out, order[best])
	}
	t.ForgetMany(p.out)
	return p.out
}

// DefaultAlignBins is the histogram resolution used by New for the
// distribution-aligned strategy.
const DefaultAlignBins = 32

// DistAligned implements the §4.4 extension of forgetting tuples "that do
// not change the data distribution for all active records": it maintains
// an equi-width histogram of every value ever inserted (the evolving
// ground-truth distribution) and forgets from the bins where the active
// histogram most exceeds its target share, keeping the two aligned — the
// goal database sampling techniques aim for [7].
type DistAligned struct {
	src  *xrand.Source
	col  string
	bins int

	totalHist []int64 // all values ever inserted, including forgotten
	totalN    int64
	binWidth  int64
	maxSeen   int64
	out       []int
}

// NewDistAligned returns the distribution-aligned strategy with the given
// histogram resolution over column col.
func NewDistAligned(src *xrand.Source, col string, bins int) *DistAligned {
	if src == nil {
		panic("amnesia: NewDistAligned with nil source")
	}
	if col == "" {
		panic("amnesia: NewDistAligned with empty column name")
	}
	if bins < 2 {
		panic("amnesia: NewDistAligned needs at least 2 bins")
	}
	return &DistAligned{src: src, col: col, bins: bins}
}

// Name implements Strategy.
func (*DistAligned) Name() string { return "distaligned" }

// Forget implements Strategy.
func (d *DistAligned) Forget(t *table.Table, n int) []int {
	n = clampBudget(t, n)
	d.out = d.out[:0]
	if n == 0 {
		return d.out
	}
	c, err := t.Column(d.col)
	if err != nil {
		panic(err)
	}
	d.refresh(c.Values())

	// Bin the active tuples.
	active := t.ActiveIndices()
	byBin := make([][]int, d.bins)
	for _, i := range active {
		b := d.bin(c.Get(i))
		byBin[b] = append(byBin[b], i)
	}

	for len(d.out) < n {
		// Find the bin with the largest surplus of active tuples over
		// its target share of the post-forget active count.
		targetTotal := float64(len(active) - len(d.out) - 1)
		best, bestSurplus := -1, math.Inf(-1)
		for b := 0; b < d.bins; b++ {
			if len(byBin[b]) == 0 {
				continue
			}
			want := targetTotal * float64(d.totalHist[b]) / float64(d.totalN)
			surplus := float64(len(byBin[b])) - want
			if surplus > bestSurplus {
				best, bestSurplus = b, surplus
			}
		}
		if best < 0 {
			break // nothing active anywhere
		}
		members := byBin[best]
		pick := d.src.Intn(len(members))
		d.out = append(d.out, members[pick])
		members[pick] = members[len(members)-1]
		byBin[best] = members[:len(members)-1]
	}
	t.ForgetMany(d.out)
	return d.out
}

// refresh rebuilds the ground-truth histogram when the observed value
// range has grown, then folds in values appended since the last call.
func (d *DistAligned) refresh(all []int64) {
	var max int64 = 1
	for _, v := range all {
		if v > max {
			max = v
		}
	}
	width := max/int64(d.bins) + 1
	if d.totalHist == nil || width != d.binWidth {
		d.totalHist = make([]int64, d.bins)
		d.binWidth = width
		d.totalN = 0
		for _, v := range all {
			d.totalHist[d.bin(v)]++
		}
		d.totalN = int64(len(all))
		d.maxSeen = max
		return
	}
	for i := d.totalN; i < int64(len(all)); i++ {
		d.totalHist[d.bin(all[i])]++
	}
	d.totalN = int64(len(all))
	d.maxSeen = max
}

func (d *DistAligned) bin(v int64) int {
	if v < 0 {
		return 0
	}
	b := int(v / d.binWidth)
	if b >= d.bins {
		b = d.bins - 1
	}
	return b
}
