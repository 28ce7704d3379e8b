package histogram

import (
	"math"
	"testing"
	"testing/quick"

	"amnesiadb/internal/xrand"
)

func TestAddFraction(t *testing.T) {
	h := New(4, 99) // buckets of width 25
	h.Add(0)
	h.Add(24)
	h.Add(25)
	h.Add(99)
	for b, want := range []float64{0.5, 0.25, 0, 0.25} {
		if got := h.Fraction(b); got != want {
			t.Fatalf("fraction(%d) = %v, want %v", b, got, want)
		}
	}
}

func TestClamping(t *testing.T) {
	h := New(4, 99)
	h.Add(-5)
	h.Add(1000)
	if h.Fraction(0) != 0.5 || h.Fraction(3) != 0.5 {
		t.Fatal("clamping wrong")
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"bins=0":  func() { New(0, 10) },
		"max=-1":  func() { New(4, -1) },
		"binMism": func() { New(4, 10).TVDistance(New(5, 10)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestDistancesIdentical(t *testing.T) {
	src := xrand.New(1)
	vals := make([]int64, 10000)
	for i := range vals {
		vals[i] = src.Int63n(1000)
	}
	if d := FromValues(vals, 16, 999).TVDistance(FromValues(vals, 16, 999)); d != 0 {
		t.Fatalf("TV distance of identical = %v", d)
	}
}

func TestDistancesDisjoint(t *testing.T) {
	a, b := New(4, 99), New(4, 99)
	a.Add(0)
	b.Add(99)
	if d := a.TVDistance(b); math.Abs(d-1) > 1e-12 {
		t.Fatalf("TV of disjoint = %v", d)
	}
}

func TestTVDistanceOrdersDrift(t *testing.T) {
	// A sample missing 40% of one mode must be further from the truth
	// than a sample missing 10%.
	src := xrand.New(2)
	truth := New(8, 999)
	mild := New(8, 999)
	severe := New(8, 999)
	for i := 0; i < 50000; i++ {
		v := src.Int63n(1000)
		truth.Add(v)
		low := v < 500
		if !low || src.Bool(0.9) {
			mild.Add(v)
		}
		if !low || src.Bool(0.6) {
			severe.Add(v)
		}
	}
	if truth.TVDistance(severe) <= truth.TVDistance(mild) {
		t.Fatalf("TV ordering broken: severe %v <= mild %v",
			truth.TVDistance(severe), truth.TVDistance(mild))
	}
}

func TestFromValues(t *testing.T) {
	h := FromValues([]int64{0, 10, 20, 30}, 4, 30)
	for b := 0; b < 4; b++ {
		if h.Fraction(b) != 0.25 {
			t.Fatalf("fraction(%d) = %v", b, h.Fraction(b))
		}
	}
	if FromValues(nil, 4, 0).Fraction(0) != 0 {
		t.Fatal("empty FromValues wrong")
	}
}

func TestPropertyDistanceBoundsAndSymmetry(t *testing.T) {
	f := func(aRaw, bRaw []uint16) bool {
		a, b := New(8, 1<<16), New(8, 1<<16)
		for _, v := range aRaw {
			a.Add(int64(v))
		}
		for _, v := range bRaw {
			b.Add(int64(v))
		}
		tv := a.TVDistance(b)
		return tv >= 0 && tv <= 1+1e-12 && math.Abs(tv-b.TVDistance(a)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
