package workload

import (
	"testing"

	"amnesiadb/internal/xrand"
)

func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

func gen(seed uint64, stored []int64) *RangeGen {
	g := NewRangeGen(xrand.New(seed))
	g.Insert(stored)
	return g
}

func TestRangeGenWindowWidth(t *testing.T) {
	vals := seq(10001) // max = 10000
	g := gen(1, vals)
	for i := 0; i < 1000; i++ {
		lo, hi, ok := g.Next(vals)
		if !ok {
			t.Fatal("no window for populated data")
		}
		// ±1% of max=10000 → window ≤ 201 (+1 for the candidate), and
		// clamping at 0 can shrink it.
		if width := hi - lo; width < 1 || width > 202 {
			t.Fatalf("window width %d out of expected envelope", width)
		}
		if lo < 0 {
			t.Fatalf("negative lower bound %d", lo)
		}
	}
}

func TestRangeGenCoversWholeDomain(t *testing.T) {
	// Under CandidateUniform, candidate values must span 0..max.
	g := gen(2, seq(1000))
	g.Candidates = CandidateUniform
	lowSeen, highSeen := false, false
	for i := 0; i < 2000; i++ {
		lo, hi, _ := g.Next(nil)
		if lo < 100 {
			lowSeen = true
		}
		if hi > 900 {
			highSeen = true
		}
	}
	if !lowSeen || !highSeen {
		t.Fatalf("candidates not spanning domain: low=%v high=%v", lowSeen, highSeen)
	}
}

func TestCandidateActiveFollowsRetainedData(t *testing.T) {
	// Only the low values stay active; active-candidate windows must
	// centre on them.
	vals := seq(1000)
	g := gen(20, vals)
	for i := 0; i < 500; i++ {
		lo, hi, ok := g.Next(vals[:500])
		if !ok {
			t.Fatal("no window")
		}
		// all candidates are < 500, window ±10.
		if lo > 500 {
			t.Fatalf("active candidate window [%d,%d) centred on forgotten value", lo, hi)
		}
	}
}

func TestCandidateStoredSeesForgotten(t *testing.T) {
	vals := seq(1000)
	g := gen(21, vals)
	g.Candidates = CandidateStored
	low := false
	for i := 0; i < 300; i++ {
		if lo, _, _ := g.Next(vals[999:]); lo < 400 {
			low = true
			break
		}
	}
	if !low {
		t.Fatal("stored candidates never visited forgotten values")
	}
}

func TestCandidateActiveNoActiveTuples(t *testing.T) {
	g := gen(22, []int64{1, 2, 3})
	if _, _, ok := g.Next(nil); ok {
		t.Fatal("window generated with zero active tuples")
	}
}

func TestCandidateModeStrings(t *testing.T) {
	if CandidateActive.String() != "active" || CandidateStored.String() != "stored" ||
		CandidateUniform.String() != "uniform" {
		t.Fatal("mode strings wrong")
	}
}

func TestRangeGenNothingInserted(t *testing.T) {
	g := NewRangeGen(xrand.New(3))
	g.Candidates = CandidateUniform
	if _, _, ok := g.Next(nil); ok {
		t.Fatal("window generated before any insert")
	}
}

func TestRangeGenSelectivityKnob(t *testing.T) {
	vals := seq(10001)
	g := gen(4, vals)
	g.Selectivity = 0.5
	maxWidth := int64(0)
	for i := 0; i < 500; i++ {
		lo, hi, _ := g.Next(vals)
		maxWidth = max(maxWidth, hi-lo)
	}
	if maxWidth < 4000 {
		t.Fatalf("selectivity 0.5 produced max window %d; knob ignored", maxWidth)
	}
}
