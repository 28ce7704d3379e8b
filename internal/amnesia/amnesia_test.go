package amnesia

import (
	"math"
	"math/bits"
	"slices"
	"testing"
	"testing/quick"

	"amnesiadb/internal/bitvec"
	"amnesiadb/internal/table"
	"amnesiadb/internal/xrand"
)

// mkTable builds a single-column table of nBatches batches with batchSize
// serial values each.
func mkTable(t *testing.T, nBatches, batchSize int) *table.Table {
	t.Helper()
	tb := table.New("t", "a")
	v := int64(0)
	for b := 0; b < nBatches; b++ {
		vals := make([]int64, batchSize)
		for i := range vals {
			vals[i] = v
			v++
		}
		if _, err := tb.AppendSingleColumn(vals); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func allStrategies(src *xrand.Source) []Strategy {
	out := make([]Strategy, 0, len(Names()))
	for _, n := range Names() {
		s, err := New(n, "a", src.Split())
		if err != nil {
			panic(err)
		}
		out = append(out, s)
	}
	return out
}

func TestNewKnownAndUnknown(t *testing.T) {
	src := xrand.New(1)
	for _, n := range Names() {
		s, err := New(n, "a", src)
		if err != nil {
			t.Fatalf("New(%q): %v", n, err)
		}
		if s.Name() != n {
			t.Fatalf("New(%q).Name() = %q", n, s.Name())
		}
	}
	if _, err := New("bogus", "a", src); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestAllStrategiesForgetExactBudget(t *testing.T) {
	for _, s := range allStrategies(xrand.New(2)) {
		tb := mkTable(t, 5, 100)
		got := s.Forget(tb, 123)
		if len(got) != 123 {
			t.Fatalf("%s returned %d positions, want 123", s.Name(), len(got))
		}
		if tb.ActiveCount() != 500-123 {
			t.Fatalf("%s left %d active, want %d", s.Name(), tb.ActiveCount(), 500-123)
		}
	}
}

func TestAllStrategiesClampToActive(t *testing.T) {
	for _, s := range allStrategies(xrand.New(3)) {
		tb := mkTable(t, 1, 10)
		got := s.Forget(tb, 50)
		if len(got) != 10 {
			t.Fatalf("%s returned %d positions, want 10 (clamped)", s.Name(), len(got))
		}
		if tb.ActiveCount() != 0 {
			t.Fatalf("%s left %d active", s.Name(), tb.ActiveCount())
		}
	}
}

func TestAllStrategiesNonPositiveBudgetNoop(t *testing.T) {
	for _, n := range []int{0, -1, -500} {
		for _, s := range allStrategies(xrand.New(4)) {
			tb := mkTable(t, 2, 50)
			if got := s.Forget(tb, n); len(got) != 0 {
				t.Fatalf("%s forgot %d on budget %d", s.Name(), len(got), n)
			}
			if tb.ActiveCount() != 100 {
				t.Fatalf("%s changed active count on budget %d", s.Name(), n)
			}
		}
	}
}

func TestAllStrategiesNeverReactivate(t *testing.T) {
	for _, s := range allStrategies(xrand.New(5)) {
		tb := mkTable(t, 4, 50)
		tb.ForgetMany([]int{0, 10, 199})
		s.Forget(tb, 40)
		if tb.IsActive(0) || tb.IsActive(10) || tb.IsActive(199) {
			t.Fatalf("%s reactivated a forgotten tuple", s.Name())
		}
	}
}

func TestFIFOForgetsOldestFirst(t *testing.T) {
	tb := mkTable(t, 3, 10)
	NewFIFO().Forget(tb, 15)
	for i := 0; i < 15; i++ {
		if tb.IsActive(i) {
			t.Fatalf("tuple %d still active after FIFO", i)
		}
	}
	for i := 15; i < 30; i++ {
		if !tb.IsActive(i) {
			t.Fatalf("tuple %d lost by FIFO", i)
		}
	}
}

func TestFIFOSkipsAlreadyForgotten(t *testing.T) {
	tb := mkTable(t, 1, 10)
	tb.Forget(0)
	tb.Forget(2)
	NewFIFO().Forget(tb, 2)
	// Oldest active were 1 and 3.
	if tb.IsActive(1) || tb.IsActive(3) {
		t.Fatal("FIFO did not forget oldest active")
	}
	if !tb.IsActive(4) {
		t.Fatal("FIFO overshot")
	}
}

func TestUniformSpreadsForgetting(t *testing.T) {
	// Across many trials every tuple should be forgotten a similar
	// number of times.
	const n, budget, trials = 100, 20, 3000
	counts := make([]int, n)
	src := xrand.New(6)
	for tr := 0; tr < trials; tr++ {
		tb := mkTable(t, 1, n)
		NewUniform(src.Split()).Forget(tb, budget)
		for i := 0; i < n; i++ {
			if !tb.IsActive(i) {
				counts[i]++
			}
		}
	}
	want := float64(trials) * budget / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.2 {
			t.Fatalf("tuple %d forgotten %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestAnterogradeTargetsRecentTuples(t *testing.T) {
	const trials = 300
	oldHalf, newHalf := 0, 0
	src := xrand.New(7)
	for tr := 0; tr < trials; tr++ {
		tb := mkTable(t, 2, 100)
		NewAnterograde(src.Split(), DefaultAnteBias).Forget(tb, 50)
		for i := 0; i < 100; i++ {
			if !tb.IsActive(i) {
				oldHalf++
			}
		}
		for i := 100; i < 200; i++ {
			if !tb.IsActive(i) {
				newHalf++
			}
		}
	}
	if newHalf < oldHalf*3 {
		t.Fatalf("anterograde not recency-biased: old=%d new=%d", oldHalf, newHalf)
	}
}

func TestRotProtectsFrequentlyAccessed(t *testing.T) {
	src := xrand.New(8)
	hot, cold := 0, 0
	const trials = 200
	for tr := 0; tr < trials; tr++ {
		tb := mkTable(t, 5, 40) // batches 0..4; current batch = 4
		// Tuples 0..19 are heavily accessed, everything else cold.
		for i := 0; i < 20; i++ {
			for k := 0; k < 50; k++ {
				tb.Touch(i)
			}
		}
		NewRot(src.Split(), 2).Forget(tb, 60)
		for i := 0; i < 20; i++ {
			if !tb.IsActive(i) {
				hot++
			}
		}
		for i := 20; i < 120; i++ { // old enough, cold
			if !tb.IsActive(i) {
				cold++
			}
		}
	}
	// Per-tuple forgetting rate should be far higher for cold tuples.
	hotRate := float64(hot) / (20 * trials)
	coldRate := float64(cold) / (100 * trials)
	if coldRate < hotRate*5 {
		t.Fatalf("rot ignored access frequency: hotRate=%.3f coldRate=%.3f", hotRate, coldRate)
	}
}

func TestRotHonoursHighWaterMark(t *testing.T) {
	src := xrand.New(9)
	const trials = 100
	youngForgotten, totalYoung := 0, 0
	for tr := 0; tr < trials; tr++ {
		tb := mkTable(t, 5, 40) // batch ids 0..4, current = 4
		// minAge 2 protects batches 3 and 4 (ages 1 and 0) while the
		// 120 older tuples can cover the budget of 40.
		NewRot(src.Split(), 2).Forget(tb, 40)
		for i := 120; i < 200; i++ {
			totalYoung++
			if !tb.IsActive(i) {
				youngForgotten++
			}
		}
	}
	if youngForgotten != 0 {
		t.Fatalf("rot forgot %d/%d protected young tuples", youngForgotten, totalYoung)
	}
}

func TestRotFallsBackWhenHWMExhausted(t *testing.T) {
	tb := mkTable(t, 2, 10) // current batch 1; minAge 5 protects everything
	got := NewRot(xrand.New(10), 5).Forget(tb, 7)
	if len(got) != 7 || tb.ActiveCount() != 13 {
		t.Fatalf("rot fallback forgot %d, active %d", len(got), tb.ActiveCount())
	}
}

func TestFrequentTargetsHotTuples(t *testing.T) {
	src := xrand.New(11)
	hot, cold := 0, 0
	const trials = 200
	for tr := 0; tr < trials; tr++ {
		tb := mkTable(t, 1, 100)
		for i := 0; i < 20; i++ {
			for k := 0; k < 50; k++ {
				tb.Touch(i)
			}
		}
		NewFrequent(src.Split()).Forget(tb, 30)
		for i := 0; i < 20; i++ {
			if !tb.IsActive(i) {
				hot++
			}
		}
		for i := 20; i < 100; i++ {
			if !tb.IsActive(i) {
				cold++
			}
		}
	}
	hotRate := float64(hot) / (20 * trials)
	coldRate := float64(cold) / (80 * trials)
	if hotRate < coldRate*5 {
		t.Fatalf("frequent ignored access frequency: hotRate=%.3f coldRate=%.3f", hotRate, coldRate)
	}
}

func TestAreaGrowsContiguousHoles(t *testing.T) {
	tb := mkTable(t, 10, 100)
	a := NewArea(xrand.New(12), 3)
	a.Forget(tb, 400)
	// Count maximal runs of forgotten tuples. New molds seed with
	// probability 1/(K+1) per step, so some scatter is inherent, but the
	// forgotten set must form far fewer runs than uniform forgetting
	// would (uniform expectation ~ 400*(600/1000) = 240 runs).
	runs := 0
	inRun := false
	for i := 0; i < tb.Len(); i++ {
		if !tb.IsActive(i) {
			if !inRun {
				runs++
				inRun = true
			}
		} else {
			inRun = false
		}
	}
	if runs > 120 {
		t.Fatalf("area produced %d forgotten runs; holes not contiguous", runs)
	}
	if tb.ActiveCount() != 600 {
		t.Fatalf("active = %d", tb.ActiveCount())
	}
}

func TestAreaExposesExtents(t *testing.T) {
	tb := mkTable(t, 2, 100)
	a := NewArea(xrand.New(13), 2)
	a.Forget(tb, 20)
	areas := a.Areas()
	if len(areas) == 0 {
		t.Fatal("no areas recorded")
	}
	for _, e := range areas {
		if e[0] > e[1] || e[0] < 0 || e[1] >= tb.Len() {
			t.Fatalf("invalid extent %v", e)
		}
	}
}

func TestPairwisePreservesAverage(t *testing.T) {
	src := xrand.New(14)
	tb := table.New("t", "a")
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = src.Int63n(10000)
	}
	if _, err := tb.AppendSingleColumn(vals); err != nil {
		t.Fatal(err)
	}
	mean := func() float64 {
		c := tb.MustColumn("a")
		var sum float64
		n := 0
		for i := 0; i < tb.Len(); i++ {
			if tb.IsActive(i) {
				sum += float64(c.Get(i))
				n++
			}
		}
		return sum / float64(n)
	}
	before := mean()
	NewPairwise(src, "a").Forget(tb, 600)
	after := mean()
	if rel := math.Abs(after-before) / before; rel > 0.05 {
		t.Fatalf("pairwise shifted mean by %.2f%% (%.1f -> %.1f)", rel*100, before, after)
	}
}

func TestPairwiseBeatsUniformOnAvgDrift(t *testing.T) {
	// The §4.4 claim: pairwise retains AVG precision longer than naive
	// forgetting. Compare drift over many trials.
	src := xrand.New(15)
	drift := func(s Strategy) float64 {
		var total float64
		const trials = 30
		for tr := 0; tr < trials; tr++ {
			tb := table.New("t", "a")
			vals := make([]int64, 500)
			for i := range vals {
				vals[i] = src.Int63n(10000)
			}
			if _, err := tb.AppendSingleColumn(vals); err != nil {
				t.Fatal(err)
			}
			c := tb.MustColumn("a")
			meanOf := func() float64 {
				var sum float64
				n := 0
				for i := 0; i < tb.Len(); i++ {
					if tb.IsActive(i) {
						sum += float64(c.Get(i))
						n++
					}
				}
				return sum / float64(n)
			}
			before := meanOf()
			s.Forget(tb, 300)
			total += math.Abs(meanOf() - before)
		}
		return total / trials
	}
	pw := drift(NewPairwise(src.Split(), "a"))
	un := drift(NewUniform(src.Split()))
	if pw > un {
		t.Fatalf("pairwise drift %.2f not better than uniform %.2f", pw, un)
	}
}

func TestDistAlignedKeepsHistogramShape(t *testing.T) {
	src := xrand.New(16)
	tb := table.New("t", "a")
	// Bimodal data: 70% low values, 30% high values.
	vals := make([]int64, 2000)
	for i := range vals {
		if src.Bool(0.7) {
			vals[i] = src.Int63n(1000)
		} else {
			vals[i] = 9000 + src.Int63n(1000)
		}
	}
	if _, err := tb.AppendSingleColumn(vals); err != nil {
		t.Fatal(err)
	}
	NewDistAligned(src, "a", 16).Forget(tb, 1500)
	c := tb.MustColumn("a")
	low, high := 0, 0
	for i := 0; i < tb.Len(); i++ {
		if !tb.IsActive(i) {
			continue
		}
		if c.Get(i) < 5000 {
			low++
		} else {
			high++
		}
	}
	frac := float64(low) / float64(low+high)
	if math.Abs(frac-0.7) > 0.08 {
		t.Fatalf("post-forget low fraction %.3f, want ~0.70", frac)
	}
}

func TestForgetOlderThan(t *testing.T) {
	tb := mkTable(t, 5, 10) // batches 0..4, current = 4
	tb.Forget(3)
	got := ForgetOlderThan(tb, 2, []int{-1})
	// Ages: batch 0 -> 4, 1 -> 3, 2 -> 2, 3 -> 1, 4 -> 0. Older than 2
	// means batches 0 and 1: 20 tuples, one of them forgotten already.
	// The positions come back ascending, after what dst held.
	want := []int{-1}
	for i := 0; i < 20; i++ {
		if i != 3 {
			want = append(want, i)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("forgot %v, want %v", got, want)
	}
	for i := 0; i < 20; i++ {
		if tb.IsActive(i) {
			t.Fatalf("expired tuple %d active", i)
		}
	}
	for i := 20; i < 50; i++ {
		if !tb.IsActive(i) {
			t.Fatalf("in-window tuple %d forgotten", i)
		}
	}
	// Idempotent, and a window wider than the table's history is a no-op.
	epoch := tb.Epoch()
	if got := ForgetOlderThan(tb, 2, nil); len(got) != 0 {
		t.Fatalf("second pass forgot %v", got)
	}
	if got := ForgetOlderThan(tb, 100, nil); len(got) != 0 {
		t.Fatalf("over-wide window forgot %v", got)
	}
	if tb.Epoch() != epoch {
		t.Fatal("a pass that forgot nothing bumped the epoch")
	}
}

func TestForgetOlderThanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative maxAge did not panic")
		}
	}()
	ForgetOlderThan(mkTable(t, 1, 1), -1, nil)
}

// sliceWeights prices position i at w[i].
type sliceWeights []uint64

func (w sliceWeights) scan(base int, mask, u uint64) (int, uint64, uint64) {
	var sum uint64
	for m := mask; m != 0; m &= m - 1 {
		p := bits.TrailingZeros64(m)
		if sum += w[base+p]; sum > u {
			return p, w[base+p], sum
		}
	}
	return -1, 0, sum
}

// sampleWeights draws k of the positions [0, len(w)) through a sampler.
func sampleWeights(s *sampler, src *xrand.Source, w []uint64, k int) []int {
	return s.sample(src, bitvec.NewSet(len(w)), len(w), sliceWeights(w), k)
}

func TestSamplerDistinct(t *testing.T) {
	src := xrand.New(17)
	// 150 positions: three bitmap words, the last one partial.
	w := make([]uint64, 150)
	for i := range w {
		w[i] = uint64(i + 1)
	}
	var s sampler
	for _, k := range []int{20, 150, 400} {
		got := sampleWeights(&s, src, w, k)
		if want := min(k, len(w)); len(got) != want {
			t.Fatalf("k=%d returned %d positions, want %d", k, len(got), want)
		}
		seen := map[int]bool{}
		for _, i := range got {
			if i < 0 || i >= len(w) || seen[i] {
				t.Fatalf("invalid or duplicate index %d in %v", i, got)
			}
			seen[i] = true
		}
	}
}

func TestSamplerHonoursBitmapAndPrefix(t *testing.T) {
	src := xrand.New(21)
	active := bitvec.NewSet(300)
	for i := 0; i < 300; i += 3 {
		active.Clear(i)
	}
	w := make(sliceWeights, 300)
	for i := range w {
		w[i] = 1
	}
	var s sampler
	got := s.sample(src, active, 130, w, 1000)
	if len(got) != active.CountRange(0, 130) {
		t.Fatalf("drew %d positions, %d are set below 130", len(got), active.CountRange(0, 130))
	}
	for _, i := range got {
		if i >= 130 || !active.Test(i) {
			t.Fatalf("drew position %d: outside the prefix or not set", i)
		}
	}
	if active.Count() != 200 {
		t.Fatal("sampler modified the caller's bitmap")
	}
}

func TestSamplerBias(t *testing.T) {
	src := xrand.New(18)
	// Item 1 has 9x the weight of item 0; over many single draws it must
	// win roughly 9x as often.
	w := []uint64{1, 9}
	c0, c1 := 0, 0
	var s sampler
	for i := 0; i < 20000; i++ {
		if sampleWeights(&s, src, w, 1)[0] == 0 {
			c0++
		} else {
			c1++
		}
	}
	ratio := float64(c1) / float64(c0)
	if ratio < 7 || ratio > 11 {
		t.Fatalf("weight ratio 9 sampled at %.2f", ratio)
	}
}

func TestSamplerZeroWeightsLast(t *testing.T) {
	src := xrand.New(19)
	w := []uint64{0, 1, 0, 1}
	var s sampler
	got := sampleWeights(&s, src, w, 2)
	for _, i := range got {
		if i == 0 || i == 2 {
			t.Fatalf("zero-weight index %d chosen while positive weights remained", i)
		}
	}
	// But with k = 4 the zero-weight items must still be returned.
	got = sampleWeights(&s, src, w, 4)
	if len(got) != 4 {
		t.Fatalf("full sample returned %d items", len(got))
	}
	// And all-zero weights still meet the budget.
	if got = sampleWeights(&s, src, []uint64{0, 0, 0}, 2); len(got) != 2 {
		t.Fatalf("all-zero sample returned %d items", len(got))
	}
}

func TestPropertyBudgetInvariant(t *testing.T) {
	// For every strategy: after Forget(n), active == max(0, before-n).
	src := xrand.New(20)
	f := func(nBatches, batchSize, budget uint8) bool {
		nb := int(nBatches)%5 + 1
		bs := int(batchSize)%50 + 1
		n := int(budget) % (nb*bs + 10)
		for _, s := range allStrategies(src.Split()) {
			tb := table.New("t", "a")
			v := int64(0)
			for b := 0; b < nb; b++ {
				vals := make([]int64, bs)
				for i := range vals {
					vals[i] = v
					v++
				}
				if _, err := tb.AppendSingleColumn(vals); err != nil {
					return false
				}
			}
			before := tb.ActiveCount()
			s.Forget(tb, n)
			want := before - n
			if want < 0 {
				want = 0
			}
			if tb.ActiveCount() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"uniform nil src":    func() { NewUniform(nil) },
		"ante nil src":       func() { NewAnterograde(nil, 1) },
		"ante bad bias":      func() { NewAnterograde(xrand.New(1), 0) },
		"rot nil src":        func() { NewRot(nil, 1) },
		"rot negative age":   func() { NewRot(xrand.New(1), -1) },
		"area nil src":       func() { NewArea(nil, 1) },
		"area k=0":           func() { NewArea(xrand.New(1), 0) },
		"frequent nil src":   func() { NewFrequent(nil) },
		"pairwise nil src":   func() { NewPairwise(nil, "a") },
		"pairwise empty col": func() { NewPairwise(xrand.New(1), "") },
		"aligned nil src":    func() { NewDistAligned(nil, "a", 4) },
		"aligned 1 bin":      func() { NewDistAligned(xrand.New(1), "a", 1) },
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

func BenchmarkStrategies(b *testing.B) {
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			src := xrand.New(1)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tb := table.New("t", "a")
				vals := make([]int64, 10000)
				for j := range vals {
					vals[j] = src.Int63n(100000)
				}
				if _, err := tb.AppendSingleColumn(vals); err != nil {
					b.Fatal(err)
				}
				s, err := New(name, "a", src.Split())
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				s.Forget(tb, 2000)
			}
		})
	}
}
