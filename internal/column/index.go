package column

import (
	"math"
	"sort"
)

// The value-order index (§4.4's secondary access path) is a permutation
// of the stored positions sorted by (value, position), 4 bytes a row,
// searched through the column's own values. It is derived state: built
// lazily by BuildIndex under the caller's shared lock, and otherwise
// changed only by AppendSlice (which folds an outgrown tail in) and
// Compact (which remaps it), under the exclusive lock. Forgotten rows
// stay indexed, filtered by the active bitmap at lookup, until Compact
// removes them.

// valueIndex is one published state of a column's index. perm orders
// the positions [0, len(perm)); rows from len(perm) on are the tail.
type valueIndex struct {
	perm []int32
	// maxTail is how many unindexed rows the builder was willing to
	// scan: an append past it folds the tail in.
	maxTail int
}

// BuildIndex builds the column's value-order index unless it already has
// one, and reports whether it has one afterwards. Readers may call it
// concurrently under a shared lock: one builds, and a caller that finds
// a build in progress returns false at once rather than wait for it.
// maxTail bounds the unindexed tail later appends may leave.
func (c *Int64) BuildIndex(maxTail int) bool {
	if c.index.Load() != nil {
		return true
	}
	if !c.buildMu.TryLock() {
		return false
	}
	defer c.buildMu.Unlock()
	if c.index.Load() == nil {
		c.index.Store(&valueIndex{perm: c.foldTail(nil), maxTail: maxTail})
	}
	return true
}

// IndexRange returns the indexed positions with lo <= v < hi (hi ==
// math.MaxInt64 unbounded) in (value, position) order, a view the caller
// must not modify, and covered, the rows the index spans: [covered, Len)
// is the unindexed tail left to scan. ok is false before a build.
func (c *Int64) IndexRange(lo, hi int64) (perm []int32, covered int, ok bool) {
	ix := c.index.Load()
	if ix == nil {
		return nil, 0, false
	}
	p := ix.perm
	from := c.lowerBound(p, lo)
	to := len(p)
	if hi != math.MaxInt64 {
		to = from + c.lowerBound(p[from:], hi)
	}
	return p[from:to], len(p), true
}

// IndexBytes is the memory the column's value-order index holds, 0
// before one is built.
func (c *Int64) IndexBytes() int {
	if ix := c.index.Load(); ix != nil {
		return 4 * cap(ix.perm)
	}
	return 0
}

// EstimateRange estimates how many stored rows hold a value in [lo, hi)
// (hi == math.MaxInt64 unbounded) from the column's global min and max,
// as if values were spread evenly between them: what the zone maps can
// say about a range without reading a row.
func (c *Int64) EstimateRange(lo, hi int64) int {
	lo, top := max(lo, c.all.Min), c.all.Max
	if hi != math.MaxInt64 {
		if hi <= lo {
			return 0
		}
		top = min(top, hi-1)
	}
	if top < lo { // also every range over an empty column
		return 0
	}
	// The unsigned differences are exact even across the whole int64 range.
	width := float64(uint64(top-lo)) + 1
	domain := float64(uint64(c.all.Max-c.all.Min)) + 1
	return int(math.Ceil(float64(len(c.data)) * width / domain))
}

// lowerBound returns the first i with data[p[i]] >= v, len(p) if none.
func (c *Int64) lowerBound(p []int32, v int64) int {
	return sort.Search(len(p), func(i int) bool { return c.data[p[i]] >= v })
}

// foldTail returns the (value, position) permutation of every stored
// row, given perm, that of the rows [0, len(perm)): the tail is sorted
// on its own and merged in. It allocates the result at its exact size,
// so IndexBytes is 4 bytes a stored row. A nil perm builds from scratch.
func (c *Int64) foldTail(perm []int32) []int32 {
	n, k := len(c.data), len(perm)
	out := make([]int32, n)
	tail := out[k:]
	for i := range tail {
		tail[i] = int32(k + i)
	}
	c.sortByValue(tail)
	// Merge forward in place: the tail sits at the end of out, and slot
	// i+j is never past the tail's unread j-th entry. On equal values
	// perm's entry goes first, since every tail position is larger.
	data := c.data
	i, j := 0, 0
	for w := range out {
		if j == len(tail) || (i < k && data[perm[i]] <= data[tail[j]]) {
			out[w] = perm[i]
			i++
		} else {
			out[w] = tail[j]
			j++
		}
	}
	return out
}

// sortByValue orders ascending positions by (value, position): a stable
// radix sort on the values, a byte a pass, skipping bytes no two values
// differ in, so a narrow value range takes few passes.
func (c *Int64) sortByValue(pos []int32) {
	n := len(pos)
	if n == 0 {
		return
	}
	keys := make([]uint64, n)
	var diff uint64
	for i, p := range pos {
		// Flipping the sign bit maps int64 order onto uint64 order.
		keys[i] = uint64(c.data[p]) ^ 1<<63
		diff |= keys[i] ^ keys[0]
	}
	srcK, srcP := keys, pos
	dstK, dstP := make([]uint64, n), make([]int32, n)
	for shift := uint(0); shift < 64; shift += 8 {
		if diff>>shift&0xff == 0 {
			continue
		}
		var start [256]int
		for _, k := range srcK {
			start[k>>shift&0xff]++
		}
		sum := 0
		for d, cnt := range start {
			start[d] = sum
			sum += cnt
		}
		for i, k := range srcK {
			d := k >> shift & 0xff
			dstK[start[d]], dstP[start[d]] = k, srcP[i]
			start[d]++
		}
		srcK, dstK = dstK, srcK
		srcP, dstP = dstP, srcP
	}
	copy(pos, srcP)
}
