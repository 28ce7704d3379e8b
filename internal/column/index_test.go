package column

import (
	"cmp"
	"math"
	"slices"
	"strconv"
	"testing"

	"amnesiadb/internal/bitvec"
	"amnesiadb/internal/xrand"
)

// checkIndex holds the column's value-order index to the row-at-a-time
// oracle: it must be a (value, position)-sorted permutation of the rows
// it covers, leave a tail of at most maxTail rows, report 4 bytes a
// covered row, and answer [lo, hi) with exactly the covered rows
// ScanRange names, in (value, position) order.
func checkIndex(t *testing.T, c *Int64, lo, hi int64, maxTail int) {
	t.Helper()
	all, covered, ok := c.IndexRange(math.MinInt64, math.MaxInt64)
	if !ok || len(all) != covered || covered > c.Len() || c.Len()-covered > maxTail {
		t.Fatalf("index covers %d of %d rows (ok=%v, %d entries), tail bound %d", covered, c.Len(), ok, len(all), maxTail)
	}
	if got := c.IndexBytes(); got != 4*covered {
		t.Fatalf("IndexBytes = %d for %d covered rows", got, covered)
	}
	seen := make([]bool, covered)
	for i, p := range all {
		if p < 0 || int(p) >= covered || seen[p] {
			t.Fatalf("index entry %d = %d: not a permutation of [0, %d)", i, p, covered)
		}
		seen[p] = true
		if i > 0 && byValue(c, all[i-1], p) > 0 {
			t.Fatalf("index entries %d, %d out of (value, position) order", all[i-1], p)
		}
	}
	var want []int32
	for _, r := range c.ScanRange(lo, hi, nil) {
		if int(r) < covered {
			want = append(want, r)
		}
	}
	slices.SortFunc(want, func(a, b int32) int { return byValue(c, a, b) })
	got, _, _ := c.IndexRange(lo, hi)
	if !slices.Equal(got, want) {
		t.Fatalf("IndexRange(%d, %d) = %v, want %v", lo, hi, got, want)
	}
}

func byValue(c *Int64, a, b int32) int {
	if r := cmp.Compare(c.Get(int(a)), c.Get(int(b))); r != 0 {
		return r
	}
	return cmp.Compare(a, b)
}

// FuzzValueIndex drives the value-order index through a build, appends
// that stay in its tail and appends that fold it, and a Compact with
// appends after it, checking it against the oracle after every step
// over random values, bounds and block sizes — edge values, duplicates
// and both bound conventions included.
func FuzzValueIndex(f *testing.F) {
	f.Add(uint64(1), int64(10), int64(90), uint16(300), uint16(40), uint8(16), true)
	f.Add(uint64(2), int64(math.MinInt64), int64(math.MaxInt64), uint16(130), uint16(200), uint8(1), false)
	f.Add(uint64(3), int64(math.MaxInt64), int64(math.MaxInt64), uint16(1000), uint16(0), uint8(64), true)
	f.Add(uint64(4), int64(50), int64(20), uint16(64), uint16(64), uint8(0), true)
	f.Add(uint64(5), int64(math.MaxInt64-1), int64(math.MaxInt64), uint16(0), uint16(90), uint8(7), true)
	f.Fuzz(func(t *testing.T, seed uint64, lo, hi int64, n, m uint16, maxTail uint8, compact bool) {
		src := xrand.New(seed)
		edges := []int64{math.MinInt64, math.MaxInt64, lo, hi, hi - 1, lo - 1}
		gen := func(k int) []int64 {
			vs := make([]int64, k)
			for i := range vs {
				switch src.Intn(4) {
				case 0:
					vs[i] = edges[src.Intn(len(edges))]
				case 1:
					vs[i] = int64(src.Uint64())
				default:
					vs[i] = lo + src.Int63n(200) - 100
				}
			}
			return vs
		}
		tail := int(maxTail)
		c := NewWithBlockSize(int(seed%130) + 1)
		c.AppendSlice(gen(int(n)))
		if !c.BuildIndex(tail) {
			t.Fatal("uncontended BuildIndex reported no index")
		}
		checkIndex(t, c, lo, hi, tail)
		for rest := int(m); rest > 0; {
			k := 1 + src.Intn(rest)
			c.AppendSlice(gen(k))
			rest -= k
			checkIndex(t, c, lo, hi, tail)
		}
		if compact {
			keep := bitvec.New(c.Len())
			for i := 0; i < c.Len(); i++ {
				if src.Bool(0.6) {
					keep.Set(i)
				}
			}
			c.Compact(keep, keep.Ranks(c.Len()))
			checkIndex(t, c, lo, hi, 0)
			c.AppendSlice(gen(tail/2 + 1))
			checkIndex(t, c, lo, hi, tail)
		}
	})
}

// TestBuildIndexDoesNotWait pins the build protocol: a reader that finds
// another build in progress gets no index instead of blocking, and the
// finished build is shared by everyone after it.
func TestBuildIndexDoesNotWait(t *testing.T) {
	c := New()
	c.AppendSlice([]int64{5, 3, 9, 3})
	if c.IndexBytes() != 0 {
		t.Fatal("index memory before any build")
	}
	if _, _, ok := c.IndexRange(0, 10); ok {
		t.Fatal("IndexRange answered before any build")
	}
	c.buildMu.Lock()
	if c.BuildIndex(8) {
		t.Fatal("BuildIndex waited for, or bypassed, a build in progress")
	}
	c.buildMu.Unlock()
	if !c.BuildIndex(8) || !c.BuildIndex(8) {
		t.Fatal("BuildIndex failed uncontended")
	}
	if got, covered, _ := c.IndexRange(3, 6); !slices.Equal(got, []int32{1, 3, 0}) || covered != 4 {
		t.Fatalf("IndexRange(3, 6) = %v over %d rows, want [1 3 0] over 4", got, covered)
	}
}

func TestEstimateRange(t *testing.T) {
	c := New()
	if got := c.EstimateRange(math.MinInt64, math.MaxInt64); got != 0 {
		t.Fatalf("empty column estimate = %d", got)
	}
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i)
	}
	c.AppendSlice(vals)
	for _, tc := range []struct {
		lo, hi int64
		want   int
	}{
		{0, 10, 10}, {990, math.MaxInt64, 10}, {-5, 5, 5}, {20, 10, 0}, {2000, 3000, 0},
		{math.MinInt64, math.MaxInt64, 1000},
	} {
		if got := c.EstimateRange(tc.lo, tc.hi); got != tc.want {
			t.Errorf("EstimateRange(%d, %d) = %d, want %d", tc.lo, tc.hi, got, tc.want)
		}
	}
	c.AppendSlice([]int64{math.MinInt64, math.MaxInt64})
	if got := c.EstimateRange(0, 1000); got != 1 {
		t.Errorf("estimate over the full int64 spread = %d, want 1", got)
	}
}

// BenchmarkBuildIndex times the one-time build a column's first narrow
// query pays, over uniformly random values.
func BenchmarkBuildIndex(b *testing.B) {
	for _, n := range []int{256 << 10, 4 << 20} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			src := xrand.New(1)
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = src.Int63n(int64(n))
			}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := New()
				c.AppendSlice(vals)
				b.StartTimer()
				c.BuildIndex(0)
			}
		})
	}
}
