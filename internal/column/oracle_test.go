package column

import (
	"math"
	"slices"
	"testing"

	"amnesiadb/internal/bitvec"
	"amnesiadb/internal/xrand"
)

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

// AggregateRange computes count, sum, min and max over rows with
// lo <= v < hi, honouring active when non-nil. When no row qualifies,
// ok is false and the other results are zero values.
func (c *Int64) AggregateRange(lo, hi int64, active *bitvec.Vector) (count int, sum, min, max int64, ok bool) {
	min, max = math.MaxInt64, math.MinInt64
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
			v := c.data[i]
			if v < lo || (v >= hi && !unbounded) {
				continue
			}
			if active != nil && !active.Test(i) {
				continue
			}
			count++
			sum += v
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
	}
	if count == 0 {
		return 0, 0, 0, 0, false
	}
	return count, sum, min, max, true
}

// FuzzScanKernel holds the three mask-first kernels to the row-at-a-time
// oracles (ScanRange, ScanRangeActive and AggregateRange above) over
// random values, bounds, block sizes, active bitmaps, row intervals and
// batch sizes, edge values and both bound conventions included.
func FuzzScanKernel(f *testing.F) {
	f.Add(uint64(1), int64(10), int64(90), uint8(64), uint8(7), uint16(300), uint16(0), uint16(300), true)
	f.Add(uint64(2), int64(math.MinInt64), int64(math.MaxInt64), uint8(1), uint8(1), uint16(130), uint16(3), uint16(129), false)
	f.Add(uint64(3), int64(50), int64(20), uint8(130), uint8(70), uint16(500), uint16(64), uint16(448), true)
	f.Add(uint64(4), int64(math.MaxInt64), int64(math.MaxInt64), uint8(63), uint8(64), uint16(1000), uint16(1), uint16(999), true)
	f.Fuzz(func(t *testing.T, seed uint64, lo, hi int64, blockSize, batch uint8, n, start, end uint16, useActive bool) {
		bs, bt := int(blockSize)%130+1, int(batch)%70+1
		src := xrand.New(seed)
		c := NewWithBlockSize(bs)
		edges := []int64{math.MinInt64, math.MaxInt64, lo, hi, hi - 1, lo - 1}
		active := bitvec.New(int(n))
		for i := 0; i < int(n); i++ {
			switch src.Intn(4) {
			case 0:
				c.Append(edges[src.Intn(len(edges))])
			case 1:
				c.Append(int64(src.Uint64()))
			default:
				c.Append(lo + src.Int63n(200) - 100)
			}
			if src.Bool(0.7) {
				active.Set(i)
			}
		}
		var act *bitvec.Vector
		full := c.ScanRange(lo, hi, nil)
		if useActive {
			act = active
			full = c.ScanRangeActive(lo, hi, active, nil)
		}
		s, e := int(start), int(end)
		var want []int32
		var wantSum int64
		wantMin, wantMax := int64(math.MaxInt64), int64(math.MinInt64)
		for _, r := range full {
			if int(r) >= s && int(r) < e {
				want = append(want, r)
				v := c.Get(int(r))
				wantSum += v
				wantMin, wantMax = min(wantMin, v), max(wantMax, v)
			}
		}

		sel, val := make([]int32, bt), make([]int64, bt)
		var got []int32
		for pos := s; pos < e && pos < c.Len(); {
			k, next := c.ScanBatchRange(lo, hi, act, pos, e, sel, val)
			if next <= pos && k == 0 {
				t.Fatalf("scan stuck at %d", pos)
			}
			for i, r := range sel[:k] {
				if val[i] != c.Get(int(r)) {
					t.Fatalf("row %d: value %d, column holds %d", r, val[i], c.Get(int(r)))
				}
			}
			got = append(got, sel[:k]...)
			pos = next
		}
		if !slices.Equal(got, want) {
			t.Fatalf("ScanBatchRange rows %v, want %v", got, want)
		}
		if k := c.CountRangeIn(lo, hi, act, s, e); k != len(want) {
			t.Fatalf("CountRangeIn = %d, want %d", k, len(want))
		}
		// Access counts over [s, min(e, n)), some at the uint32 ceiling:
		// the fold increments exactly the qualifying rows, once each.
		counts := make([]uint32, max(0, min(e, int(n))-s))
		for i := range counts {
			if src.Bool(0.1) {
				counts[i] = ^uint32(0)
			} else {
				counts[i] = uint32(src.Intn(1000))
			}
		}
		before := slices.Clone(counts)
		k, sum, mn, mx := c.AggregateRangeIn(lo, hi, act, s, e, counts)
		if k != len(want) || sum != wantSum || mn != wantMin || mx != wantMax {
			t.Fatalf("AggregateRangeIn = (%d, %d, %d, %d), want (%d, %d, %d, %d)", k, sum, mn, mx, len(want), wantSum, wantMin, wantMax)
		}
		for _, r := range want {
			if b := &before[int(r)-s]; *b != ^uint32(0) {
				*b++
			}
		}
		for i := range counts {
			if counts[i] != before[i] {
				t.Fatalf("row %d: access count %d after the fold, want %d", s+i, counts[i], before[i])
			}
		}
	})
}
