package column

import (
	"fmt"
	"math"
	"math/bits"

	"amnesiadb/internal/bitvec"
)

// rangeMask is the scan kernel every consumer shares: bit j of the
// result is set iff d[j] lies in the inclusive interval [lo, lo+span],
// for up to 64 rows. One wrapping subtract and one unsigned compare
// cover both ends of the interval, and the compare never becomes a
// branch: its borrow is shifted into the mask through the carry flag
// (SUB, ADC per row — rows run high to low so row j lands on bit j), a
// full word as two independent carry chains. The cost per row therefore
// does not depend on how many rows qualify, where a per-row `if`
// mispredicts its way to 3-4x at 25-50 % selectivity.
func rangeMask(d []int64, lo int64, span uint64) uint64 {
	var out, outHi uint64 // rows outside the interval
	if len(d) == 64 {
		for j := 31; j >= 0; j-- {
			_, b := bits.Sub64(span, uint64(d[j]-lo), 0)
			out, _ = bits.Add64(out, out, b)
			_, b = bits.Sub64(span, uint64(d[j+32]-lo), 0)
			outHi, _ = bits.Add64(outHi, outHi, b)
		}
		return ^(outHi<<32 | out)
	}
	for j := len(d) - 1; j >= 0; j-- {
		_, b := bits.Sub64(span, uint64(d[j]-lo), 0)
		out, _ = bits.Add64(out, out, b)
	}
	return ^out & (1<<uint(len(d)) - 1)
}

// scanMasks drives rangeMask over the row interval [start, end) (end
// clamped to Len) one active-bitmap word at a time: fn receives each
// word's first row position and its non-zero qualifying mask — rows with
// lo <= v < hi (hi == math.MaxInt64 unbounded) whose active bit is set,
// every bit when active is nil — in ascending order, until it returns
// false. Zone maps skip whole blocks; words straddling start, end or a
// block boundary are masked to the rows inside.
func (c *Int64) scanMasks(lo, hi int64, active *bitvec.Vector, start, end int, fn func(base int, m uint64) bool) {
	if active != nil && active.Len() < len(c.data) {
		panic(fmt.Sprintf("column: active bitmap %d bits for %d rows", active.Len(), len(c.data)))
	}
	if start < 0 {
		start = 0
	}
	if end > len(c.data) {
		end = len(c.data)
	}
	// One inclusive span serves both bound conventions: [lo, MaxInt64]
	// when unbounded, [lo, hi-1] otherwise.
	span := uint64(hi - lo)
	if hi != math.MaxInt64 {
		if lo >= hi {
			return
		}
		span--
	}
	for i := start; i < end; {
		b := i / c.blockSize
		blockEnd := min((b+1)*c.blockSize, end)
		if !c.zones[b].Contains(lo, hi) {
			i = blockEnd
			continue
		}
		for i < blockEnd {
			base := i &^ 63
			wordEnd := min(base+64, blockEnd)
			m := rangeMask(c.data[i:wordEnd], lo, span) << (uint(i) & 63)
			if active != nil {
				m &= active.Word(i >> 6)
			}
			i = wordEnd
			if m != 0 && !fn(base, m) {
				return
			}
		}
	}
}

// ScanBatchRange is the vectorized scan kernel: starting at row position
// start, it fills the caller-provided parallel buffers sel (positions)
// and val (values), of equal length, with rows of [start, end) (end
// clamped to Len) satisfying lo <= v < hi (hi == math.MaxInt64 means no
// upper bound, per the expr.Bounds convention) — restricted to rows
// whose bit is set in active when active is non-nil — until the buffers
// are full or the interval is exhausted. It returns the number of rows
// produced and the position scanning should resume from (end once
// exhausted). The kernel allocates nothing, so a tight caller loop
// reuses one batch for the whole scan; morsel workers share a column by
// their disjoint intervals. Positions are emitted from each word's
// qualifying mask by TrailingZeros64; a batch that fills mid-word
// resumes at the lowest qualifying row still pending.
func (c *Int64) ScanBatchRange(lo, hi int64, active *bitvec.Vector, start, end int, sel []int32, val []int64) (n, next int) {
	if len(sel) != len(val) {
		panic(fmt.Sprintf("column: ScanBatchRange buffers disagree: %d positions, %d values", len(sel), len(val)))
	}
	next = max(start, min(end, len(c.data)))
	c.scanMasks(lo, hi, active, start, end, func(base int, m uint64) bool {
		k, data := n, c.data
		for ; m != 0 && k < len(sel); k++ {
			r := base + bits.TrailingZeros64(m)
			m &= m - 1
			sel[k] = int32(r)
			val[k] = data[r]
		}
		n = k
		if m != 0 {
			next = base + bits.TrailingZeros64(m)
		}
		return m == 0
	})
	return n, next
}

// CountRangeIn returns the number of rows in the row interval [start, end)
// with lo <= v < hi, honouring active when non-nil: parallel counting
// queries (COUNT(*), Precision ground truth) split a column into morsels
// the same way the materializing kernel does. end is clamped to Len.
func (c *Int64) CountRangeIn(lo, hi int64, active *bitvec.Vector, start, end int) int {
	n := 0
	c.scanMasks(lo, hi, active, start, end, func(_ int, m uint64) bool {
		n += bits.OnesCount64(m)
		return true
	})
	return n
}

// AggregateRangeIn folds count, sum, min and max over the rows of
// [start, end) with lo <= v < hi, honouring active when non-nil,
// straight from the qualifying masks: no position or value batch is
// materialized. An empty qualifying set reports count 0, min MaxInt64
// and max MinInt64, so partial results merge without a special case.
// When counts is non-nil, the same loop that folds a row increments
// counts[row-start], saturating at the uint32 ceiling — the access
// counts Table.TouchRange lends; it must cover the interval.
func (c *Int64) AggregateRangeIn(lo, hi int64, active *bitvec.Vector, start, end int, counts []uint32) (count int, sum, minV, maxV int64) {
	minV, maxV = math.MaxInt64, math.MinInt64
	start = max(start, 0)
	c.scanMasks(lo, hi, active, start, end, func(base int, m uint64) bool {
		count += bits.OnesCount64(m)
		s, mn, mx, data := sum, minV, maxV, c.data
		for ; m != 0; m &= m - 1 {
			r := base + bits.TrailingZeros64(m)
			v := data[r]
			s += v
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
			if counts != nil && counts[r-start] != ^uint32(0) {
				counts[r-start]++
			}
		}
		sum, minV, maxV = s, mn, mx
		return true
	})
	return count, sum, minV, maxV
}

// Gather fills out with the values at the given row positions and returns
// it, growing out only when its capacity is insufficient. It panics on an
// out-of-range position.
func (c *Int64) Gather(rows []int32, out []int64) []int64 {
	if cap(out) < len(rows) {
		out = make([]int64, len(rows))
	}
	out = out[:len(rows)]
	for i, r := range rows {
		if r < 0 || int(r) >= len(c.data) {
			panic(fmt.Sprintf("column: gather row %d out of range [0, %d)", r, len(c.data)))
		}
		out[i] = c.data[r]
	}
	return out
}
