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
// folds count/sum/min/max from the set bits and, in the same loop,
// can increment the access counts of the rows it folds (the counts
// Table.TouchRange lends). Because no compare is a branch, the
// kernel's cost per row is the same at 0.1 % and at 50 % selectivity —
// about 1.3x a plain sum over the same values; only the consumers'
// work scales with the rows that qualify. ScanRangeActive stays row-at-a-time: it is an
// oracle the kernels are tested against. Zone maps prune blocks, not
// rows; narrow ranges over spread values use the index (index.go).
package column

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

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

// emptyZone is the zone map of no values: it merges into any other
// without a special case.
var emptyZone = ZoneMap{Min: math.MaxInt64, Max: math.MinInt64}

// Int64 is an append-only column of int64 values with per-block zone maps.
// The zero value is not usable; construct with New or NewWithBlockSize.
// Int64 is not safe for concurrent mutation: Append, AppendSlice and
// Compact need the caller's exclusive lock, while any number of readers
// — BuildIndex included — may run together under a shared one.
type Int64 struct {
	data      []int64
	zones     []ZoneMap
	blockSize int
	// all is the zone map of the whole column.
	all ZoneMap

	// index is the value-order index, nil until a reader builds it;
	// buildMu admits one builder at a time (see index.go).
	index   atomic.Pointer[valueIndex]
	buildMu sync.Mutex
}

// New returns an empty column with DefaultBlockSize.
func New() *Int64 { return NewWithBlockSize(DefaultBlockSize) }

// NewWithBlockSize returns an empty column using the given block size.
// It panics if blockSize <= 0.
func NewWithBlockSize(blockSize int) *Int64 {
	if blockSize <= 0 {
		panic("column: block size must be positive")
	}
	return &Int64{blockSize: blockSize, all: emptyZone}
}

// FromValues returns a column with DefaultBlockSize that adopts vs as
// its storage, zone maps built; the caller must not touch vs after.
func FromValues(vs []int64) *Int64 {
	c := New()
	c.data = vs
	c.extendZones(0)
	return c
}

// Len returns the number of values stored.
func (c *Int64) Len() int { return len(c.data) }

// BlockSize returns the configured block size.
func (c *Int64) BlockSize() int { return c.blockSize }

// Append adds one value to the end of the column.
func (c *Int64) Append(v int64) { c.AppendSlice([]int64{v}) }

// AppendSlice appends all values in vs with one data append and one
// zone-map update per touched block: the values land first, then each
// block's min/max is folded over its new rows in a tight slice loop —
// the columnar bulk write that pairs with the batch read kernels. The
// new rows join the value-order index's unindexed tail, which is folded
// in once it outgrows the bound the index was built with.
func (c *Int64) AppendSlice(vs []int64) {
	if len(vs) == 0 {
		return
	}
	start := len(c.data)
	c.data = append(c.data, vs...)
	c.extendZones(start)
	if ix := c.index.Load(); ix != nil && len(c.data)-len(ix.perm) > ix.maxTail {
		c.index.Store(&valueIndex{perm: c.foldTail(ix.perm), maxTail: ix.maxTail})
	}
}

// extendZones folds rows [start, Len) into the zone maps of their blocks
// and into the column's.
func (c *Int64) extendZones(start int) {
	for b := start / c.blockSize; b*c.blockSize < len(c.data); b++ {
		if b == len(c.zones) {
			c.zones = append(c.zones, emptyZone)
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
		c.all = ZoneMap{Min: min(c.all.Min, z.Min), Max: max(c.all.Max, z.Max)}
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

// ScanRangeActive appends to sel the positions of the rows with lo <= v <
// hi (hi == math.MaxInt64 unbounded) whose bit is set in active, row at a
// time behind the zone maps, and returns the extended slice. active must
// be at least Len bits long.
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

// MaxValue returns the largest value stored so far and false when empty.
func (c *Int64) MaxValue() (int64, bool) { return c.all.Max, len(c.data) > 0 }

// Compact rebuilds the column keeping only the rows whose bit is set in
// keep, preserving order, into an array of exactly their number. remap
// is keep.Ranks over at least the column's rows, the old-to-new map a
// table builds once for all its columns. This backs table vacuuming —
// the "physically remove" fate of forgotten data. A value-order index
// is remapped in O(n) rather than discarded: the dropped rows leave it
// here and nowhere earlier, and its unindexed tail is folded in.
func (c *Int64) Compact(keep *bitvec.Vector, remap []int32) {
	if keep.Len() < len(c.data) || len(remap) < len(c.data) {
		panic(fmt.Sprintf("column: keep bitmap %d bits, remap %d entries for %d rows", keep.Len(), len(remap), len(c.data)))
	}
	c.data, c.zones, c.all = bitvec.Keep(keep, c.data), c.zones[:0], emptyZone
	c.extendZones(0)
	if ix := c.index.Load(); ix != nil {
		// remap is monotone, so the survivors keep their (value,
		// position) order; they are exactly the new positions below
		// len(perm), and the tail's survivors follow them.
		perm := ix.perm[:0]
		for _, p := range ix.perm {
			if q := remap[p]; q >= 0 {
				perm = append(perm, q)
			}
		}
		c.index.Store(&valueIndex{perm: c.foldTail(perm), maxTail: ix.maxTail})
	}
}
