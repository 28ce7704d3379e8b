package column

import (
	"slices"
	"testing"
	"testing/quick"

	"amnesiadb/internal/bitvec"
	"amnesiadb/internal/xrand"
)

func fill(c *Int64, vs ...int64) {
	for _, v := range vs {
		c.Append(v)
	}
}

func TestAppendGetLen(t *testing.T) {
	c := NewWithBlockSize(4)
	fill(c, 5, 3, 9, 1, 7)
	if c.Len() != 5 {
		t.Fatalf("Len = %d", c.Len())
	}
	want := []int64{5, 3, 9, 1, 7}
	for i, w := range want {
		if got := c.Get(i); got != w {
			t.Fatalf("Get(%d) = %d, want %d", i, got, w)
		}
	}
	if len(c.zones) != 2 {
		t.Fatalf("%d zone maps, want 2", len(c.zones))
	}
}

func TestZoneMapsTrackMinMax(t *testing.T) {
	c := NewWithBlockSize(3)
	fill(c, 5, 3, 9, 1, 7)
	if z := c.zones[0]; z.Min != 3 || z.Max != 9 {
		t.Fatalf("zone 0 = %+v", z)
	}
	if z := c.zones[1]; z.Min != 1 || z.Max != 7 {
		t.Fatalf("zone 1 = %+v", z)
	}
}

func TestGetPanics(t *testing.T) {
	c := New()
	fill(c, 1)
	for _, i := range []int{-1, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Get(%d) did not panic", i)
				}
			}()
			c.Get(i)
		}()
	}
}

func TestScanRangeBasic(t *testing.T) {
	c := NewWithBlockSize(2)
	fill(c, 10, 20, 30, 40, 50)
	sel := c.ScanRange(20, 45, nil)
	want := []int32{1, 2, 3}
	if len(sel) != len(want) {
		t.Fatalf("sel = %v, want %v", sel, want)
	}
	for i := range want {
		if sel[i] != want[i] {
			t.Fatalf("sel = %v, want %v", sel, want)
		}
	}
}

func TestScanRangeEmptyAndFull(t *testing.T) {
	c := NewWithBlockSize(4)
	fill(c, 1, 2, 3)
	if got := c.ScanRange(100, 200, nil); len(got) != 0 {
		t.Fatalf("empty scan returned %v", got)
	}
	if got := c.ScanRange(0, 100, nil); len(got) != 3 {
		t.Fatalf("full scan returned %v", got)
	}
}

func TestScanRangeActiveRespectsBitmap(t *testing.T) {
	c := NewWithBlockSize(2)
	fill(c, 10, 20, 30, 40)
	active := bitvec.NewSet(4)
	active.Clear(1)
	sel := c.ScanRangeActive(0, 100, active, nil)
	if len(sel) != 3 || sel[0] != 0 || sel[1] != 2 || sel[2] != 3 {
		t.Fatalf("sel = %v", sel)
	}
}

func TestScanMatchesNaive(t *testing.T) {
	src := xrand.New(3)
	c := NewWithBlockSize(16)
	const n = 1000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = src.Int63n(500)
		c.Append(vals[i])
	}
	active := bitvec.New(n)
	for i := 0; i < n; i++ {
		if src.Bool(0.7) {
			active.Set(i)
		}
	}
	for _, r := range [][2]int64{{0, 500}, {100, 200}, {499, 500}, {250, 250}} {
		lo, hi := r[0], r[1]
		var want []int32
		for i, v := range vals {
			if v >= lo && v < hi && active.Test(i) {
				want = append(want, int32(i))
			}
		}
		got := c.ScanRangeActive(lo, hi, active, nil)
		if len(got) != len(want) {
			t.Fatalf("range [%d,%d): got %d rows, want %d", lo, hi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("range [%d,%d): row %d = %d, want %d", lo, hi, i, got[i], want[i])
			}
		}
		if cnt := c.CountRangeIn(lo, hi, active, 0, c.Len()); cnt != len(want) {
			t.Fatalf("CountRangeIn [%d,%d) = %d, want %d", lo, hi, cnt, len(want))
		}
	}
}

func TestAggregateRange(t *testing.T) {
	c := NewWithBlockSize(2)
	fill(c, 10, 20, 30, 40, 50)
	count, sum, min, max, ok := c.AggregateRange(20, 50, nil)
	if !ok || count != 3 || sum != 90 || min != 20 || max != 40 {
		t.Fatalf("agg = (%d, %d, %d, %d, %v)", count, sum, min, max, ok)
	}
	_, _, _, _, ok = c.AggregateRange(1000, 2000, nil)
	if ok {
		t.Fatal("empty aggregate reported ok")
	}
}

func TestAggregateRangeActive(t *testing.T) {
	c := NewWithBlockSize(2)
	fill(c, 10, 20, 30)
	active := bitvec.New(3)
	active.Set(1)
	count, sum, min, max, ok := c.AggregateRange(0, 100, active)
	if !ok || count != 1 || sum != 20 || min != 20 || max != 20 {
		t.Fatalf("agg = (%d, %d, %d, %d, %v)", count, sum, min, max, ok)
	}
}

func TestMinMaxValue(t *testing.T) {
	c := NewWithBlockSize(2)
	if _, ok := c.MaxValue(); ok {
		t.Fatal("empty column reported a max")
	}
	fill(c, 7, 3, 11, 2)
	if v, ok := c.MaxValue(); !ok || v != 11 {
		t.Fatalf("MaxValue = %d, %v", v, ok)
	}
	if c.all.Min != 2 {
		t.Fatalf("column zone map = %+v, want min 2", c.all)
	}
}

func TestCompact(t *testing.T) {
	c := NewWithBlockSize(2)
	fill(c, 10, 20, 30, 40, 50)
	keep := bitvec.New(5)
	keep.Set(0)
	keep.Set(2)
	keep.Set(4)
	remap := keep.Ranks(c.Len())
	c.Compact(keep, remap)
	if c.Len() != 3 {
		t.Fatalf("post-compact Len = %d", c.Len())
	}
	wantVals := []int64{10, 30, 50}
	for i, w := range wantVals {
		if c.Get(i) != w {
			t.Fatalf("post-compact Get(%d) = %d, want %d", i, c.Get(i), w)
		}
	}
	wantMap := []int32{0, -1, 1, -1, 2}
	for i, w := range wantMap {
		if remap[i] != w {
			t.Fatalf("remap[%d] = %d, want %d", i, remap[i], w)
		}
	}
	// zone maps must be rebuilt consistently
	sel := c.ScanRange(30, 51, nil)
	if len(sel) != 2 || sel[0] != 1 || sel[1] != 2 {
		t.Fatalf("post-compact scan = %v", sel)
	}
}

func TestBlockBoundaryExactness(t *testing.T) {
	// Values exactly at block-size boundaries must not be lost or doubled.
	c := NewWithBlockSize(4)
	for i := int64(0); i < 12; i++ {
		c.Append(i)
	}
	sel := c.ScanRange(3, 9, nil)
	if len(sel) != 6 {
		t.Fatalf("boundary scan returned %d rows: %v", len(sel), sel)
	}
	for i, want := range []int32{3, 4, 5, 6, 7, 8} {
		if sel[i] != want {
			t.Fatalf("boundary scan = %v", sel)
		}
	}
}

func TestPropertyScanEquivalentToFilter(t *testing.T) {
	f := func(raw []int16, loRaw, hiRaw int16) bool {
		c := NewWithBlockSize(8)
		for _, r := range raw {
			c.Append(int64(r))
		}
		lo, hi := int64(loRaw), int64(hiRaw)
		if lo > hi {
			lo, hi = hi, lo
		}
		got := c.ScanRange(lo, hi, nil)
		j := 0
		for i, r := range raw {
			v := int64(r)
			if v >= lo && v < hi {
				if j >= len(got) || got[j] != int32(i) {
					return false
				}
				j++
			}
		}
		return j == len(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroBlockSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWithBlockSize(0) did not panic")
		}
	}()
	NewWithBlockSize(0)
}

func BenchmarkScanRange(b *testing.B) {
	src := xrand.New(1)
	c := New()
	for i := 0; i < 1<<20; i++ {
		c.Append(src.Int63n(1 << 20))
	}
	b.ResetTimer()
	var sel []int32
	for i := 0; i < b.N; i++ {
		sel = c.ScanRange(1000, 2000, sel[:0])
	}
}

func BenchmarkAppend(b *testing.B) {
	c := New()
	for i := 0; i < b.N; i++ {
		c.Append(int64(i))
	}
}

// TestAppendSliceBulkZoneMaps checks that the bulk append leaves data
// and zone maps identical to value-at-a-time appends, across block
// boundaries, partial tail blocks and repeated calls.
func TestAppendSliceBulkZoneMaps(t *testing.T) {
	src := xrand.New(3)
	bulk := NewWithBlockSize(16)
	serial := NewWithBlockSize(16)
	for _, n := range []int{1, 15, 16, 17, 100, 0, 33} {
		vs := make([]int64, n)
		for i := range vs {
			vs[i] = src.Int63n(1000) - 500
		}
		bulk.AppendSlice(vs)
		for _, v := range vs {
			serial.Append(v)
		}
	}
	if bulk.Len() != serial.Len() {
		t.Fatalf("bulk %d values, serial %d", bulk.Len(), serial.Len())
	}
	for i := 0; i < serial.Len(); i++ {
		if bulk.Get(i) != serial.Get(i) {
			t.Fatalf("value %d: bulk %d, serial %d", i, bulk.Get(i), serial.Get(i))
		}
	}
	if !slices.Equal(bulk.zones, serial.zones) || bulk.all != serial.all {
		t.Fatalf("zone maps: bulk %+v %+v, serial %+v %+v", bulk.zones, bulk.all, serial.zones, serial.all)
	}
}
