package dist

import (
	"testing"

	"amnesiadb/internal/xrand"
)

func TestKindsOrderMatchesPaperFigures(t *testing.T) {
	want := []string{"serial", "uniform", "normal", "zipfian"}
	if len(Kinds) != len(want) {
		t.Fatalf("Kinds = %v", Kinds)
	}
	for i, k := range Kinds {
		if k.String() != want[i] {
			t.Fatalf("Kinds[%d] = %s, want %s", i, k, want[i])
		}
	}
}

func TestGeneratorsStayInDomain(t *testing.T) {
	const domain = 1000
	for _, k := range Kinds {
		g := NewGenerator(k, domain, xrand.New(5))
		for i := 0; i < 10000; i++ {
			v := g.Next()
			if v < 0 || v >= domain {
				t.Fatalf("%s: value %d outside [0, %d)", k, v, int64(domain))
			}
		}
	}
}

func TestSerialWrapsAtDomain(t *testing.T) {
	g := NewGenerator(Serial, 3, xrand.New(1))
	want := []int64{0, 1, 2, 0, 1, 2, 0}
	for i, w := range want {
		if v := g.Next(); v != w {
			t.Fatalf("serial draw %d = %d, want %d", i, v, w)
		}
	}
}

func TestDeterminismAcrossEqualSeeds(t *testing.T) {
	for _, k := range Kinds {
		a := NewGenerator(k, 100000, xrand.New(42)).Batch(nil, 1000)
		b := NewGenerator(k, 100000, xrand.New(42)).Batch(nil, 1000)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: equal seeds diverged at %d: %d vs %d", k, i, a[i], b[i])
			}
		}
	}
}

func TestBatchReusesBuffer(t *testing.T) {
	g := NewGenerator(Uniform, 100, xrand.New(9))
	buf := make([]int64, 0, 64)
	out := g.Batch(buf, 32)
	if len(out) != 32 {
		t.Fatalf("batch length %d, want 32", len(out))
	}
	if &out[0] != &buf[:1][0] {
		t.Fatal("Batch did not reuse the provided buffer")
	}
}

func TestZipfIsSkewed(t *testing.T) {
	g := NewGenerator(Zipf, 100000, xrand.New(11))
	small := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if g.Next() < 100 {
			small++
		}
	}
	// Under theta=1 zipf the first 100 of 100k ranks carry far more than
	// their 0.1% uniform share; require at least 25%.
	if small < n/4 {
		t.Fatalf("zipf not skewed: only %d/%d draws in the top 100 ranks", small, n)
	}
}

func TestNormalCentred(t *testing.T) {
	const domain = 1000
	g := NewGenerator(Normal, domain, xrand.New(13))
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(g.Next())
	}
	mean := sum / n
	if mean < 450 || mean > 550 {
		t.Fatalf("normal mean %.1f, want near %d", mean, domain/2)
	}
}
