package amnesia

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"amnesiadb/internal/table"
	"amnesiadb/internal/xrand"
)

// The implementation the sum-tree sampler replaced, kept as the
// distribution oracle: per-strategy weight loops over ActiveIndices and
// Efraimidis–Spirakis keys. Successive weighted sampling without
// replacement and A-Res draw from the same distribution, so the new
// strategies must reproduce these ones' forgotten-age and
// forgotten-access-count histograms.

// weightedSampleK draws k distinct indices from [0, len(w)) with
// probability proportional to w[i], via the Efraimidis–Spirakis exponent
// trick: each item gets key u^(1/w) and the k largest keys win.
func weightedSampleK(src *xrand.Source, w []float64, k int) []int {
	if k > len(w) {
		panic("amnesia: weightedSampleK with k > len(w)")
	}
	type kv struct {
		key float64
		idx int
	}
	keys := make([]kv, len(w))
	for i, wi := range w {
		if wi <= 0 {
			// Zero-weight items get the worst possible key but stay
			// eligible so the budget can always be met.
			keys[i] = kv{key: -1, idx: i}
			continue
		}
		u := src.Float64()
		for u == 0 {
			u = src.Float64()
		}
		keys[i] = kv{key: math.Pow(u, 1/wi), idx: i}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].key > keys[b].key })
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = keys[i].idx
	}
	return out
}

// referenceForget is the replaced Forget of the named strategy at its
// default parameters.
func referenceForget(name string, src *xrand.Source, t *table.Table, n int) {
	n = clampBudget(t, n)
	current := int32(t.Batches() - 1)
	active := t.ActiveIndices()
	cand := active
	if name == "rot" {
		cand = nil
		for _, i := range active {
			if int32(DefaultRotMinAge) <= current-t.InsertBatch(i) {
				cand = append(cand, i)
			}
		}
	}
	w := make([]float64, len(cand))
	for j, i := range cand {
		switch name {
		case "ante":
			w[j] = math.Pow((float64(j)+1)/float64(len(cand)), DefaultAnteBias)
		case "rot":
			w[j] = 1 / (1 + float64(t.AccessCount(i)))
		case "frequent":
			w[j] = 1 + float64(t.AccessCount(i))
		case "decay":
			age := float64(current - t.InsertBatch(i))
			w[j] = 1 / ((1 + float64(t.AccessCount(i))) * math.Exp2(-age/DefaultDecayHalfLife))
		default:
			panic("no reference for " + name)
		}
	}
	k := min(n, len(cand))
	for _, j := range weightedSampleK(src, w, k) {
		t.Forget(cand[j])
	}
	if k < n {
		rest := t.ActiveIndices()
		for _, j := range src.SampleK(n-k, len(rest)) {
			t.Forget(rest[j])
		}
	}
}

// chiSquareP returns the upper tail probability of a χ² statistic with
// df degrees of freedom: the regularised incomplete gamma function
// Q(df/2, x/2), by its series below a+1 and its continued fraction
// above (Numerical Recipes §6.2).
func chiSquareP(x float64, df int) float64 {
	a, x := float64(df)/2, x/2
	if x <= 0 {
		return 1
	}
	lg, _ := math.Lgamma(a)
	if x < a+1 {
		sum, term := 1/a, 1/a
		for n := 1; n < 1000; n++ {
			term *= x / (a + float64(n))
			sum += term
			if term < sum*1e-15 {
				break
			}
		}
		return 1 - sum*math.Exp(-x+a*math.Log(x)-lg)
	}
	const tiny = 1e-300
	b := x + 1 - a
	c, d := 1/tiny, 1/b
	h := d
	for n := 1; n < 1000; n++ {
		an := -float64(n) * (float64(n) - a)
		b += 2
		if d = an*d + b; math.Abs(d) < tiny {
			d = tiny
		}
		if c = b + an/c; math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return h * math.Exp(-x+a*math.Log(x)-lg)
}

func TestChiSquareP(t *testing.T) {
	// Table values: P(χ²₁ > 3.841) = P(χ²₁₀ > 18.307) = 0.05, P(χ²₅ > 15.086) = 0.01.
	for _, c := range []struct {
		x    float64
		df   int
		want float64
	}{{3.841, 1, 0.05}, {18.307, 10, 0.05}, {15.086, 5, 0.01}, {2, 10, 0.9963}} {
		if got := chiSquareP(c.x, c.df); math.Abs(got-c.want) > 2e-4 {
			t.Errorf("chiSquareP(%v, %d) = %.5f, want %.4f", c.x, c.df, got, c.want)
		}
	}
}

// twoSampleChiSquare compares two histograms with equal totals and
// returns the upper tail probability of their homogeneity statistic.
// Bins empty on both sides carry no information and no degree of freedom.
func twoSampleChiSquare(a, b []int) float64 {
	stat, df := 0.0, -1
	for i := range a {
		if s := a[i] + b[i]; s > 0 {
			d := float64(a[i] - b[i])
			stat += d * d / float64(s)
			df++
		}
	}
	if df < 1 {
		return 1
	}
	return chiSquareP(stat, df)
}

const (
	oracleBatches   = 8
	oracleBatchSize = 96 // not a multiple of 64: batches straddle blocks
	oracleForget    = 96
	oracleTrials    = 300
	oracleCountBins = 8
)

// oracleTable builds the table every trial forgets from: eight batches,
// access counts 0..7 with a Zipf-like tail (half the tuples untouched),
// an eighth of the tuples already forgotten.
func oracleTable(t *testing.T) *table.Table {
	tb := mkTable(t, oracleBatches, oracleBatchSize)
	src := xrand.New(99)
	for i := 0; i < tb.Len(); i++ {
		for c := floorLog2(src.Intn(1 << oracleCountBins)); c < oracleCountBins-1; c++ {
			tb.Touch(i)
		}
		if src.Intn(8) == 0 {
			tb.Forget(i)
		}
	}
	return tb
}

// floorLog2 of a uniform draw below 2^oracleCountBins is 0..7 with P(j)
// halving as j falls, so counts 7-j are geometric.
func floorLog2(u int) int {
	j := 0
	for ; u > 1; u >>= 1 {
		j++
	}
	return j
}

// TestSamplerMatchesReferenceDistribution holds each sampler-backed
// strategy to the implementation it replaced: over many one-pass trials
// on the same table, the ages and the access counts of the tuples the
// two forget must be statistically indistinguishable (χ², p > 0.01) at
// every seed.
func TestSamplerMatchesReferenceDistribution(t *testing.T) {
	for _, name := range []string{"ante", "rot", "frequent", "decay"} {
		for seed := uint64(1); seed <= 6; seed++ {
			var age, count [2][]int
			for side := range age {
				age[side] = make([]int, oracleBatches)
				count[side] = make([]int, oracleCountBins)
				src := xrand.New(seed*1000 + uint64(side))
				for tr := 0; tr < oracleTrials; tr++ {
					tb := oracleTable(t)
					before := tb.Active().Clone()
					if side == 0 {
						s, err := New(name, "a", src.Split())
						if err != nil {
							t.Fatal(err)
						}
						s.Forget(tb, oracleForget)
					} else {
						referenceForget(name, src.Split(), tb, oracleForget)
					}
					before.AndNot(tb.Active())
					if before.Count() != oracleForget {
						t.Fatalf("%s side %d forgot %d, want %d", name, side, before.Count(), oracleForget)
					}
					before.ForEachSet(func(i int) bool {
						age[side][oracleBatches-1-int(tb.InsertBatch(i))]++
						count[side][tb.AccessCount(i)]++
						return true
					})
				}
			}
			pAge, pCount := twoSampleChiSquare(age[0], age[1]), twoSampleChiSquare(count[0], count[1])
			t.Logf("%-8s seed %d: p(age) = %.3f  p(access count) = %.3f", name, seed, pAge, pCount)
			if pAge <= 0.01 {
				t.Errorf("%s seed %d: forgotten-age histograms differ (p = %.4f): new %v, reference %v", name, seed, pAge, age[0], age[1])
			}
			if pCount <= 0.01 {
				t.Errorf("%s seed %d: forgotten-access-count histograms differ (p = %.4f): new %v, reference %v", name, seed, pCount, count[0], count[1])
			}
		}
	}
}

// TestForgetReportsItsPositions is the flat half of the position
// oracle: what every strategy returns must be, as a set, exactly the
// bitmap difference its call made — no duplicates, nothing that was
// not active before — over several passes on one strategy instance, so
// reused buffers are covered too.
func TestForgetReportsItsPositions(t *testing.T) {
	for _, s := range allStrategies(xrand.New(31)) {
		tb := oracleTable(t)
		for pass, n := range []int{50, 1, 130, 0, 77, 10000} {
			before := tb.Active().Clone()
			words, oldLen := tb.ActiveSnapshot(nil)
			got := append([]int(nil), s.Forget(tb, n)...)
			sort.Ints(got)
			diff := tb.ForgottenSince(words, oldLen)
			if fmt.Sprint(got) != fmt.Sprint(diff) {
				t.Fatalf("%s pass %d: returned %v, bitmap diff %v", s.Name(), pass, got, diff)
			}
			for _, p := range got {
				if !before.Test(p) {
					t.Fatalf("%s pass %d: returned %d, which was not active", s.Name(), pass, p)
				}
			}
			if want := min(n, before.Count()); len(got) != want {
				t.Fatalf("%s pass %d: forgot %d, want %d", s.Name(), pass, len(got), want)
			}
			// A batch between passes, as the serving path would.
			if _, err := tb.AppendSingleColumn(make([]int64, 40)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestDecayWeightsStayBounded: with the age term taken against the
// current batch, a tuple 1024 half-lives old weighed +Inf (and a table
// with two of them NaN sums). Anchored at the oldest active batch every
// weight lies in [0, weightOne], the oldest cold tuples go first, and
// tuples whose term rounds to zero are kept for last.
func TestDecayWeightsStayBounded(t *testing.T) {
	tb := table.New("t", "a")
	appendBatch := func(n int) {
		if _, err := tb.AppendSingleColumn(make([]int64, n)); err != nil {
			t.Fatal(err)
		}
	}
	appendBatch(8)
	const halfLife = 0.01       // a batch weighs 2^-100 of the one before it
	for b := 1; b < 1200; b++ { // the first batch ends 120,000 half-lives old
		appendBatch(1)
	}
	appendBatch(8)
	var w decayWeights
	w.reset(tb, halfLife)
	for p := 0; p < tb.Len(); p++ {
		want := uint64(0)
		if p < 8 {
			want = weightOne
		}
		if _, _, got := w.scan(p, 1, math.MaxUint64); got != want {
			t.Fatalf("weight of position %d is %d, want %d", p, got, want)
		}
	}
	got := NewDecay(xrand.New(5), halfLife).Forget(tb, 8)
	sort.Ints(got)
	if fmt.Sprint(got) != "[0 1 2 3 4 5 6 7]" {
		t.Fatalf("decay forgot %v, want the eight oldest", got)
	}
	// Every batch but the oldest left now has a term that rounds to
	// zero; zero weights go oldest first, so the newest batch outlives
	// everything else.
	NewDecay(xrand.New(6), halfLife).Forget(tb, tb.ActiveCount()-8)
	if first := tb.OldestActive(); tb.ActiveCount() != 8 || first != tb.Len()-8 {
		t.Fatalf("%d tuples survive, the oldest at %d; want the newest batch, at %d", tb.ActiveCount(), first, tb.Len()-8)
	}
}
