package bitvec

import (
	"fmt"
	"testing"
	"testing/quick"

	"amnesiadb/internal/xrand"
)

func TestNewAllClear(t *testing.T) {
	v := New(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d", v.Len())
	}
	if v.Count() != 0 {
		t.Fatalf("Count = %d, want 0", v.Count())
	}
	for i := 0; i < 130; i++ {
		if v.Test(i) {
			t.Fatalf("bit %d unexpectedly set", i)
		}
	}
}

func TestNewSetAllSet(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 130} {
		v := NewSet(n)
		if v.Count() != n {
			t.Fatalf("NewSet(%d).Count = %d", n, v.Count())
		}
	}
}

func TestSetClearTest(t *testing.T) {
	v := New(200)
	for _, i := range []int{0, 1, 63, 64, 127, 128, 199} {
		v.Set(i)
		if !v.Test(i) {
			t.Fatalf("bit %d not set", i)
		}
		v.Clear(i)
		if v.Test(i) {
			t.Fatalf("bit %d not cleared", i)
		}
	}
}

func TestSetTo(t *testing.T) {
	v := New(10)
	v.SetTo(3, true)
	v.SetTo(4, true)
	v.SetTo(3, false)
	if v.Test(3) || !v.Test(4) {
		t.Fatalf("SetTo wrong: %s", v)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	ops := map[string]func(*Vector){
		"Set(-1)":   func(v *Vector) { v.Set(-1) },
		"Set(n)":    func(v *Vector) { v.Set(10) },
		"Clear(n)":  func(v *Vector) { v.Clear(10) },
		"Test(n)":   func(v *Vector) { v.Test(10) },
		"CountHi":   func(v *Vector) { v.CountRange(0, 11) },
		"CountLoHi": func(v *Vector) { v.CountRange(5, 3) },
	}
	for name, op := range ops {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			op(New(10))
		}()
	}
}

func TestCountMatchesNaive(t *testing.T) {
	src := xrand.New(1)
	v := New(300)
	naive := 0
	for i := 0; i < 300; i++ {
		if src.Bool(0.4) {
			v.Set(i)
			naive++
		}
	}
	if v.Count() != naive {
		t.Fatalf("Count = %d, want %d", v.Count(), naive)
	}
}

func TestCountRange(t *testing.T) {
	src := xrand.New(2)
	v := New(257)
	set := make([]bool, 257)
	for i := range set {
		if src.Bool(0.5) {
			v.Set(i)
			set[i] = true
		}
	}
	for _, r := range [][2]int{{0, 257}, {0, 0}, {1, 64}, {63, 65}, {64, 128}, {100, 231}, {256, 257}} {
		want := 0
		for i := r[0]; i < r[1]; i++ {
			if set[i] {
				want++
			}
		}
		if got := v.CountRange(r[0], r[1]); got != want {
			t.Fatalf("CountRange(%d,%d) = %d, want %d", r[0], r[1], got, want)
		}
	}
}

func TestForEachSetOrderAndEarlyStop(t *testing.T) {
	v := New(200)
	want := []int{3, 64, 65, 150, 199}
	for _, i := range want {
		v.Set(i)
	}
	var got []int
	v.ForEachSet(func(i int) bool { got = append(got, i); return true })
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	var first []int
	v.ForEachSet(func(i int) bool { first = append(first, i); return len(first) < 2 })
	if len(first) != 2 || first[1] != 64 {
		t.Fatalf("early stop got %v", first)
	}
}

func TestForEachClear(t *testing.T) {
	v := NewSet(130)
	v.Clear(0)
	v.Clear(64)
	v.Clear(129)
	got := v.ClearIndices()
	want := []int{0, 64, 129}
	if len(got) != 3 || got[0] != 0 || got[1] != 64 || got[2] != 129 {
		t.Fatalf("ClearIndices = %v, want %v", got, want)
	}
}

func TestForEachClearStopsAtLen(t *testing.T) {
	// Len not a multiple of 64: spare bits must not be reported.
	v := New(70)
	got := v.ClearIndices()
	if len(got) != 70 {
		t.Fatalf("ClearIndices on empty 70-bit vector = %d entries", len(got))
	}
	for i, g := range got {
		if g != i {
			t.Fatalf("entry %d = %d", i, g)
		}
	}
}

func TestNextSetNextClear(t *testing.T) {
	v := New(200)
	v.Set(5)
	v.Set(64)
	v.Set(199)
	cases := []struct{ from, want int }{{0, 5}, {5, 5}, {6, 64}, {65, 199}, {199, 199}}
	for _, c := range cases {
		if got := v.NextSet(c.from); got != c.want {
			t.Fatalf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if got := v.NextSet(200); got != -1 {
		t.Fatalf("NextSet past end = %d", got)
	}
	w := NewSet(130)
	w.Clear(64)
	if got := w.NextClear(0); got != 64 {
		t.Fatalf("NextClear(0) = %d, want 64", got)
	}
	if got := w.NextClear(65); got != -1 {
		t.Fatalf("NextClear(65) = %d, want -1", got)
	}
}

func TestSetAlgebra(t *testing.T) {
	a := New(130)
	b := New(130)
	a.Set(1)
	a.Set(64)
	a.Set(100)
	b.Set(64)
	b.Set(101)

	and := a.Clone()
	and.And(b)
	if and.Count() != 1 || !and.Test(64) {
		t.Fatalf("And wrong: %v", and.SetIndices())
	}

	or := a.Clone()
	or.Or(b)
	if or.Count() != 4 {
		t.Fatalf("Or wrong: %v", or.SetIndices())
	}

	diff := a.Clone()
	diff.AndNot(b)
	if diff.Count() != 2 || diff.Test(64) {
		t.Fatalf("AndNot wrong: %v", diff.SetIndices())
	}
}

func TestNotRespectsLen(t *testing.T) {
	v := New(70)
	v.Set(0)
	v.Not()
	if v.Count() != 69 {
		t.Fatalf("Not count = %d, want 69", v.Count())
	}
	if v.Test(0) {
		t.Fatal("bit 0 should be clear after Not")
	}
}

func TestGrow(t *testing.T) {
	v := New(10)
	v.Set(9)
	v.Grow(100)
	if v.Len() != 100 || !v.Test(9) || v.Count() != 1 {
		t.Fatalf("Grow lost state: len=%d count=%d", v.Len(), v.Count())
	}
	if v.Test(50) {
		t.Fatal("grown bits should be clear")
	}
	v.GrowSet(110)
	if v.Count() != 11 {
		t.Fatalf("GrowSet count = %d, want 11", v.Count())
	}
	v.Grow(5) // shrink request is a no-op
	if v.Len() != 110 {
		t.Fatalf("Grow shrank to %d", v.Len())
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(64)
	a.Set(3)
	b := a.Clone()
	b.Set(4)
	if a.Test(4) {
		t.Fatal("Clone shares storage")
	}
}

func TestResetClearsAll(t *testing.T) {
	v := NewSet(99)
	v.Reset()
	if v.Count() != 0 {
		t.Fatalf("Reset left %d bits", v.Count())
	}
}

func TestPropertySetThenTest(t *testing.T) {
	f := func(raw []uint16) bool {
		v := New(1 << 16)
		seen := map[int]bool{}
		for _, r := range raw {
			i := int(r)
			v.Set(i)
			seen[i] = true
		}
		if v.Count() != len(seen) {
			return false
		}
		for i := range seen {
			if !v.Test(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCountComplement(t *testing.T) {
	// Count(v) + Count(not v) == Len for any vector.
	f := func(raw []uint16, nRaw uint16) bool {
		n := int(nRaw)%2000 + 1
		v := New(n)
		for _, r := range raw {
			v.Set(int(r) % n)
		}
		c := v.Count()
		w := v.Clone()
		w.Not()
		return c+w.Count() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRanksAndKeepMatchNaive holds the word-at-a-time compaction
// helpers to a bit-by-bit walk, over lengths that end mid-word and
// bitmaps with full, empty and mixed words, and over an s shorter than
// the vector.
func TestRanksAndKeepMatchNaive(t *testing.T) {
	src := xrand.New(9)
	for _, n := range []int{0, 1, 63, 64, 65, 200, 1000} {
		for _, p := range []float64{0, 0.5, 0.97, 1} {
			v := New(n)
			for i := 0; i < n; i++ {
				// Whole words of one density, so full and empty ones occur.
				if src.Bool(p) || (i/64)%3 == 1 {
					v.Set(i)
				}
			}
			ranks := v.Ranks(n)
			var kept []int
			for i := 0; i < n; i++ {
				want := int32(-1)
				if v.Test(i) {
					want = int32(len(kept))
					kept = append(kept, i)
				}
				if ranks[i] != want {
					t.Fatalf("n=%d p=%g: Ranks[%d] = %d, want %d", n, p, i, ranks[i], want)
				}
			}
			s := make([]int, n)
			for i := range s {
				s[i] = i
			}
			got := Keep(v, s)
			if fmt.Sprint(got) != fmt.Sprint(kept) || cap(got) != len(got) {
				t.Fatalf("n=%d p=%g: Keep = %v (cap %d), want %v", n, p, got, cap(got), kept)
			}
			short := Keep(v, s[:n/2])
			if want := kept[:v.CountRange(0, n/2)]; fmt.Sprint(short) != fmt.Sprint(want) {
				t.Fatalf("n=%d p=%g: Keep of %d = %v, want %v", n, p, n/2, short, want)
			}
		}
	}
}

func BenchmarkCount(b *testing.B) {
	v := NewSet(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.Count()
	}
}

func BenchmarkForEachSet(b *testing.B) {
	v := New(1 << 20)
	for i := 0; i < v.Len(); i += 3 {
		v.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := 0
		v.ForEachSet(func(j int) bool { sum += j; return true })
	}
}

// TestBytesRoundTrip holds Bytes to the byte layout snapshots store —
// bit i in bit i%8 of byte i/8, (n+7)/8 bytes — and FromBytes to its
// inverse, dropping bits past n.
func TestBytesRoundTrip(t *testing.T) {
	src := xrand.New(4)
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 130} {
		v := New(n)
		want := make([]byte, (n+7)/8)
		for i := 0; i < n; i++ {
			if src.Int63n(2) == 1 {
				v.Set(i)
				want[i/8] |= 1 << (i % 8)
			}
		}
		got := v.Bytes()
		if string(got) != string(want) {
			t.Fatalf("n=%d: Bytes = %08b, want %08b", n, got, want)
		}
		if len(got) > 0 && n%8 != 0 {
			got[len(got)-1] |= 0x80 // a bit past n
		}
		back := FromBytes(got, n)
		if back.String() != v.String() || back.Count() != v.Count() {
			t.Fatalf("n=%d: FromBytes = %s, want %s", n, back, v)
		}
	}
}
