package main

import (
	"math"
	"testing"
	"time"
)

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {0.95, 4.8}, {1, 5}, {0.25, 2}} {
		if got := percentile(xs, c.p); !almost(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("an empty class must not yield a number")
	}
}

// The rate is the median window's: one stalled window and one burst
// leave it where the steady windows put it.
func TestWindowRate(t *testing.T) {
	phase := rateWindows * time.Second
	var done []time.Duration
	for w := 0; w < rateWindows; w++ {
		n := 100
		switch w {
		case 1:
			n = 20 // a stall
		case 4:
			n = 300 // a burst draining a queue
		}
		for i := 0; i < n; i++ {
			done = append(done, time.Duration(w)*time.Second+time.Duration(i)*time.Millisecond)
		}
	}
	if got := windowRate(done, phase); !almost(got, 100) {
		t.Errorf("window rate = %v, want 100/s", got)
	}
	// Completions at or past the end of the phase belong to no window.
	done = append(done, phase, phase+time.Second)
	if got := windowRate(done, phase); !almost(got, 100) {
		t.Errorf("late completions counted: %v", got)
	}
	if got := windowRate(nil, phase); got != 0 {
		t.Errorf("no completions: %v", got)
	}
	// A cost that recurs in every other window is inside the median.
	done = done[:0]
	for w := 0; w < rateWindows; w++ {
		n := 100 - 40*(w%2)
		for i := 0; i < n; i++ {
			done = append(done, time.Duration(w)*time.Second+time.Duration(i)*time.Millisecond)
		}
	}
	if got := windowRate(done, phase); !almost(got, 80) {
		t.Errorf("recurring cost: window rate = %v, want 80/s", got)
	}
}

func TestTailEligible(t *testing.T) {
	for _, c := range []struct {
		n    int
		p95  float64
		want bool
	}{
		{tailMinSamples, tailMinMs, true},
		{tailMinSamples - 1, 50, false},   // too few samples beyond the percentile
		{1_000_000, 0.2, false},           // sub-millisecond up to its p95: the tail is jitter
		{1_000_000, 1.6, true},            // hot_small: the p95 is a cache miss's scan
		{tailMinSamples * 10, 60.5, true}, // a streaming select
	} {
		if got := tailEligible(c.n, c.p95); got != c.want {
			t.Errorf("tailEligible(%d, %v) = %v, want %v", c.n, c.p95, got, c.want)
		}
	}
}

// The probe's slowdown is the mean over the kernels of median reading
// over nominal, so an outlier reading does not move it and one slowed
// kernel moves it by its share.
func TestProbeSlowdown(t *testing.T) {
	p, err := newSpeedProbe()
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	r := &probeRun{p: p, stop: make(chan struct{})}
	nominal := float64(probeNominal)
	for i := 0; i < 9; i++ {
		for k := range r.read {
			v := nominal
			if k == 2 {
				v = 2 * nominal // the streaming kernel at half speed
			}
			if i == 4 {
				v = 50 * nominal // one reading hit by a pause
			}
			r.read[k] = append(r.read[k], v)
		}
	}
	s := r.finish()
	if want := 1 + 1.0/probeKernels; !almost(s.Slowdown, want) {
		t.Errorf("slowdown = %v, want %v", s.Slowdown, want)
	}
	if s.Readings != 9 {
		t.Errorf("%d readings, want 9", s.Readings)
	}
	// A stretch too short for the ticker still yields a speed.
	if s := p.start().finish(); s.Readings == 0 || !(s.Slowdown > 0) {
		t.Errorf("an immediate finish gave %+v", s)
	}
}

// An open loop's latency runs from the due time: a request sent 30 ms
// late that then takes 5 ms cost its issuer 35 ms.
func TestDueLatency(t *testing.T) {
	due, sent, done := 100*time.Millisecond, 130*time.Millisecond, 135*time.Millisecond
	if got := dueLatency(due, done); got != 35*time.Millisecond {
		t.Errorf("latency from due = %v, want 35ms", got)
	}
	if got := dueLatency(sent, done); got != 5*time.Millisecond {
		t.Errorf("service time = %v, want 5ms", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which is what the acceptance check computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	// >>> statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4)
	// [1.75, 3.5, 5.25]
	q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if !almost(q1, 1.75) || !almost(q2, 3.5) || !almost(q3, 5.25) {
		t.Errorf("quartiles = %v %v %v, want 1.75 3.5 5.25", q1, q2, q3)
	}
	// >>> statistics.quantiles([10, 20, 30, 40, 50], n=4)
	// [15.0, 30.0, 45.0]
	q1, q2, q3 = quartiles([]float64{10, 20, 30, 40, 50})
	if !almost(q1, 15) || !almost(q2, 30) || !almost(q3, 45) {
		t.Errorf("quartiles = %v %v %v, want 15 30 45", q1, q2, q3)
	}
	if got := iqrSpread([]float64{10, 20, 30, 40, 50}); !almost(got, 1) {
		t.Errorf("iqrSpread = %v, want 1", got)
	}
}

func TestBoundFor(t *testing.T) {
	for _, c := range []struct{ spread, want float64 }{
		{0, minBound}, {0.01, minBound}, {0.02, 0.06}, {0.05, 0.15}, {0.0834, maxBound}, {0.4, maxBound},
	} {
		if got := boundFor(c.spread); !almost(got, c.want) {
			t.Errorf("boundFor(%v) = %v, want %v", c.spread, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"same", []float64{100, 100, 101, 99, 100}, "lower", "within"},
		{"slower latency", []float64{120, 121, 119, 120, 122}, "lower", "worse"},
		{"faster latency", []float64{80, 81, 79, 80, 82}, "lower", "within"},
		{"lower throughput", []float64{80, 81, 79, 80, 82}, "higher", "worse"},
		{"noisy", []float64{60, 140, 100, 70, 130}, "lower", "unresolved"},
	} {
		if got := verdict(base, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}
