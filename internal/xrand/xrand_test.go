package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSourceDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at step %d: %d vs %d", i, av, bv)
		}
	}
}

func TestSourceDistinctSeeds(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/1000 times", same)
	}
}

func TestSplitDecorrelates(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("parent and split child collided %d/1000 times", same)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-squared over 10 buckets, 100k draws. 95% critical value for
	// 9 dof is 16.92; allow a wide 30 margin to keep the test stable.
	s := New(99)
	const buckets, draws = 10, 100000
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[s.Intn(buckets)]++
	}
	expected := float64(draws) / buckets
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 30 {
		t.Fatalf("Intn chi-squared %.2f too high; counts=%v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(6)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %.4f, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(8)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %.4f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %.4f, want ~1", variance)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(10)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate %.4f", p)
	}
}

func TestUint64nProperty(t *testing.T) {
	s := New(11)
	f := func(n uint64) bool {
		if n == 0 {
			return true
		}
		return s.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(12)
	for _, n := range []int{0, 1, 2, 10, 257} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) returned %d elements", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid or duplicate value %d", n, v)
			}
			seen[v] = true
		}
	}
}

func TestSampleKDistinctAndInRange(t *testing.T) {
	s := New(13)
	cases := []struct{ k, n int }{
		{0, 0}, {0, 10}, {1, 1}, {3, 10}, {10, 10}, {5, 1000}, {900, 1000},
	}
	for _, c := range cases {
		got := s.SampleK(c.k, c.n)
		if len(got) != c.k {
			t.Fatalf("SampleK(%d,%d) returned %d values", c.k, c.n, len(got))
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= c.n {
				t.Fatalf("SampleK(%d,%d) value %d out of range", c.k, c.n, v)
			}
			if seen[v] {
				t.Fatalf("SampleK(%d,%d) duplicate %d", c.k, c.n, v)
			}
			seen[v] = true
		}
	}
}

func TestSampleKUniformCoverage(t *testing.T) {
	// Each position of [0,n) should be selected k/n of the time.
	s := New(14)
	const k, n, trials = 5, 50, 20000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		for _, v := range s.SampleK(k, n) {
			counts[v]++
		}
	}
	want := float64(trials) * k / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.15 {
			t.Fatalf("position %d chosen %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestSampleKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SampleK(5, 3) did not panic")
		}
	}()
	New(1).SampleK(5, 3)
}

func TestReservoirUniform(t *testing.T) {
	// Offer 0..n-1, keep k; every element should survive with prob k/n.
	const k, n, trials = 10, 100, 20000
	counts := make([]int, n)
	src := New(15)
	for tr := 0; tr < trials; tr++ {
		r := NewReservoir(src, k)
		for v := int64(0); v < n; v++ {
			r.Offer(v)
		}
		for _, v := range r.Sample() {
			counts[v]++
		}
	}
	want := float64(trials) * k / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.15 {
			t.Fatalf("element %d kept %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestReservoirSeen(t *testing.T) {
	r := NewReservoir(New(16), 3)
	for i := int64(0); i < 7; i++ {
		r.Offer(i)
	}
	if r.Seen() != 7 {
		t.Fatalf("Seen = %d, want 7", r.Seen())
	}
	if len(r.Sample()) != 3 {
		t.Fatalf("Sample size = %d, want 3", len(r.Sample()))
	}
}

func TestZipfRankOrdering(t *testing.T) {
	// Lower ranks must be (weakly) more frequent for a decreasing pmf.
	s := New(19)
	z := NewZipf(s, 100, 1.0)
	counts := make([]int, 100)
	for i := 0; i < 200000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[10] || counts[1] <= counts[20] {
		t.Fatalf("Zipf head not dominant: c0=%d c1=%d c10=%d c20=%d",
			counts[0], counts[1], counts[10], counts[20])
	}
}

func TestZipfInRange(t *testing.T) {
	s := New(20)
	for _, theta := range []float64{0.5, 0.99, 1.0, 1.5} {
		z := NewZipf(s, 1000, theta)
		for i := 0; i < 10000; i++ {
			if v := z.Next(); v >= 1000 {
				t.Fatalf("theta=%v value %d out of range", theta, v)
			}
		}
	}
}

func TestZipfParetoShape(t *testing.T) {
	// With theta near 1 over a sizeable domain, the top 20% of ranks
	// should absorb well over half the mass (the 80-20 motivation in
	// the paper).
	s := New(21)
	z := NewZipf(s, 1000, 1.0)
	const draws = 200000
	top := 0
	for i := 0; i < draws; i++ {
		if z.Next() < 200 {
			top++
		}
	}
	if frac := float64(top) / draws; frac < 0.55 {
		t.Fatalf("top-20%% mass %.3f, want > 0.55", frac)
	}
}

func TestZipfPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"n=0":     func() { NewZipf(New(1), 0, 1) },
		"theta=0": func() { NewZipf(New(1), 10, 0) },
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

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkZipfNext(b *testing.B) {
	z := NewZipf(New(1), 1<<20, 0.99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Next()
	}
}
