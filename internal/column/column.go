// Package column implements amnesiadb's columnar storage primitive: an
// append-only vector of int64 values divided into fixed-size blocks, each
// carrying a zone map (min/max) so that range scans can skip blocks that
// cannot contain matches. This is the skeleton of the paper's "columnar
// DBMS written in C" (§2.1) and the substrate for the Block-Range-Index
// discussion in §4.4.
//
// The read kernels (batch.go) are mask-first. One helper, rangeMask,
// turns up to 64 values into the bitmask of those inside an inclusive
// interval with 64 branch-free unsigned compares; scanMasks runs it
// block by block behind the zone maps and ANDs each mask with the
// active bitmap's word (all ones when there is no bitmap). Every kernel
// is a consumer of that mask: ScanBatchRange emits positions and values
// by TrailingZeros64, CountRangeIn is OnesCount64, AggregateRangeIn
// folds count/sum/min/max from the set bits and can hand the masks on
// (Table.TouchMask). Because no compare is a branch, the kernel's cost
// per row is the same at 0.1 % and at 50 % selectivity — about 1.3x a
// plain sum over the same values; only the consumers' work scales with
// the rows that qualify. ScanRange and ScanRangeActive stay
// row-at-a-time: they are the oracle the kernels are tested against.
package column

import (
	"fmt"
	"math"

	"amnesiadb/internal/bitvec"
)

// DefaultBlockSize is the number of values per block when a column is built
// with New. 1024 keeps a block comfortably inside L1 while giving zone maps
// enough granularity for the paper's DBSIZE=1000 experiments to exercise
// multi-block layouts at larger scales.
const DefaultBlockSize = 1024

// ZoneMap summarises one block for scan pruning.
type ZoneMap struct {
	Min, Max int64
}

// Contains reports whether the value interval [lo, hi) can intersect
// the block. A hi of math.MaxInt64 is treated as inclusive infinity —
// the expr.Bounds convention — since a half-open interval could never
// admit MaxInt64 itself.
func (z ZoneMap) Contains(lo, hi int64) bool {
	return z.Max >= lo && (z.Min < hi || hi == math.MaxInt64)
}

// Int64 is an append-only column of int64 values with per-block zone maps.
// The zero value is not usable; construct with New or NewWithBlockSize.
// Int64 is not safe for concurrent mutation.
type Int64 struct {
	data      []int64
	zones     []ZoneMap
	blockSize int
}

// New returns an empty column with DefaultBlockSize.
func New() *Int64 { return NewWithBlockSize(DefaultBlockSize) }

// NewWithBlockSize returns an empty column using the given block size.
// It panics if blockSize <= 0.
func NewWithBlockSize(blockSize int) *Int64 {
	if blockSize <= 0 {
		panic("column: block size must be positive")
	}
	return &Int64{blockSize: blockSize}
}

// Len returns the number of values stored.
func (c *Int64) Len() int { return len(c.data) }

// BlockSize returns the configured block size.
func (c *Int64) BlockSize() int { return c.blockSize }

// Blocks returns the number of (possibly partial) blocks.
func (c *Int64) Blocks() int {
	return (len(c.data) + c.blockSize - 1) / c.blockSize
}

// Zone returns the zone map of block b. It panics if b is out of range.
func (c *Int64) Zone(b int) ZoneMap {
	if b < 0 || b >= len(c.zones) {
		panic(fmt.Sprintf("column: zone %d out of range [0, %d)", b, len(c.zones)))
	}
	return c.zones[b]
}

// Append adds one value to the end of the column, updating the zone map of
// the tail block.
func (c *Int64) Append(v int64) {
	if len(c.data)%c.blockSize == 0 {
		c.zones = append(c.zones, ZoneMap{Min: math.MaxInt64, Max: math.MinInt64})
	}
	z := &c.zones[len(c.zones)-1]
	if v < z.Min {
		z.Min = v
	}
	if v > z.Max {
		z.Max = v
	}
	c.data = append(c.data, v)
}

// AppendSlice appends all values in vs with one data append and one
// zone-map update per touched block: the values land first, then each
// block's min/max is folded over its new rows in a tight slice loop —
// the columnar bulk write that pairs with the batch read kernels.
func (c *Int64) AppendSlice(vs []int64) {
	if len(vs) == 0 {
		return
	}
	start := len(c.data)
	c.data = append(c.data, vs...)
	for b := start / c.blockSize; b*c.blockSize < len(c.data); b++ {
		if b == len(c.zones) {
			c.zones = append(c.zones, ZoneMap{Min: math.MaxInt64, Max: math.MinInt64})
		}
		lo := b * c.blockSize
		if lo < start {
			lo = start
		}
		hi := (b + 1) * c.blockSize
		if hi > len(c.data) {
			hi = len(c.data)
		}
		z := &c.zones[b]
		for _, v := range c.data[lo:hi] {
			if v < z.Min {
				z.Min = v
			}
			if v > z.Max {
				z.Max = v
			}
		}
	}
}

// Get returns the value at row i. It panics if i is out of range.
func (c *Int64) Get(i int) int64 {
	if i < 0 || i >= len(c.data) {
		panic(fmt.Sprintf("column: row %d out of range [0, %d)", i, len(c.data)))
	}
	return c.data[i]
}

// Values returns the backing slice. The caller must treat it as read-only;
// mutating it would desynchronise the zone maps.
func (c *Int64) Values() []int64 { return c.data }

// ScanRange appends to sel the positions of all rows whose value v satisfies
// lo <= v < hi, using zone maps to skip non-intersecting blocks, and returns
// the extended slice.
func (c *Int64) ScanRange(lo, hi int64, sel []int32) []int32 {
	unbounded := hi == math.MaxInt64
	for b := 0; b < len(c.zones); b++ {
		if !c.zones[b].Contains(lo, hi) {
			continue
		}
		start := b * c.blockSize
		end := start + c.blockSize
		if end > len(c.data) {
			end = len(c.data)
		}
		for i := start; i < end; i++ {
			if v := c.data[i]; v >= lo && (v < hi || unbounded) {
				sel = append(sel, int32(i))
			}
		}
	}
	return sel
}

// ScanRangeActive is ScanRange restricted to rows whose bit is set in
// active. active must be at least Len bits long.
func (c *Int64) ScanRangeActive(lo, hi int64, active *bitvec.Vector, sel []int32) []int32 {
	if active.Len() < len(c.data) {
		panic(fmt.Sprintf("column: active bitmap %d bits for %d rows", active.Len(), len(c.data)))
	}
	unbounded := hi == math.MaxInt64
	for b := 0; b < len(c.zones); b++ {
		if !c.zones[b].Contains(lo, hi) {
			continue
		}
		start := b * c.blockSize
		end := start + c.blockSize
		if end > len(c.data) {
			end = len(c.data)
		}
		for i := start; i < end; i++ {
			if v := c.data[i]; v >= lo && (v < hi || unbounded) && active.Test(i) {
				sel = append(sel, int32(i))
			}
		}
	}
	return sel
}

// CountRange returns the number of rows with lo <= v < hi. If active is
// non-nil only rows with their bit set are counted (word-parallel, via
// the range-bounded counting kernel).
func (c *Int64) CountRange(lo, hi int64, active *bitvec.Vector) int {
	return c.CountRangeIn(lo, hi, active, 0, len(c.data))
}

// MaxValue returns the largest value stored so far and false when empty.
// It consults only zone maps, so it is O(blocks).
func (c *Int64) MaxValue() (int64, bool) {
	if len(c.data) == 0 {
		return 0, false
	}
	max := int64(math.MinInt64)
	for _, z := range c.zones {
		if z.Max > max {
			max = z.Max
		}
	}
	return max, true
}

// MinValue returns the smallest value stored so far and false when empty.
func (c *Int64) MinValue() (int64, bool) {
	if len(c.data) == 0 {
		return 0, false
	}
	min := int64(math.MaxInt64)
	for _, z := range c.zones {
		if z.Min < min {
			min = z.Min
		}
	}
	return min, true
}

// Compact rebuilds the column keeping only the rows whose bit is set in
// keep, preserving order, and returns a mapping from old row positions to
// new ones (-1 for dropped rows). This backs table vacuuming — the
// "physically remove" fate of forgotten data.
func (c *Int64) Compact(keep *bitvec.Vector) []int32 {
	if keep.Len() < len(c.data) {
		panic(fmt.Sprintf("column: keep bitmap %d bits for %d rows", keep.Len(), len(c.data)))
	}
	remap := make([]int32, len(c.data))
	nc := NewWithBlockSize(c.blockSize)
	for i, v := range c.data {
		if keep.Test(i) {
			remap[i] = int32(nc.Len())
			nc.Append(v)
		} else {
			remap[i] = -1
		}
	}
	c.data, c.zones = nc.data, nc.zones
	return remap
}
