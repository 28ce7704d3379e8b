// Package amnesia implements the paper's controlled-forgetting strategies
// (§3): the temporally biased FIFO, Uniform (reservoir-style) and
// Anterograde algorithms, the query-based Rot algorithm with its
// high-water-mark guard, the spatially biased Area ("mold") algorithm, and
// the extensions sketched in §3.2 and §4.4 — Frequent (forget over-used
// data), Pairwise (average-preserving forgetting) and DistAligned
// (distribution-preserving forgetting).
//
// A Strategy is invoked after every update batch with the number of tuples
// that must be forgotten to restore the storage budget (§2.1 keeps the
// active set at exactly DBSIZE tuples). Strategies see only table metadata
// — insertion order, access frequency, stored values — matching the
// paper's requirement that amnesia be "closely tied with the DBMS itself".
// Forget returns the positions it forgot: the durability layer logs the
// strategy's own answer, and nothing diffs bitmaps to reconstruct it.
//
// # The sampler
//
// A table held at its budget runs a pass after every batch, so a pass
// must cost about as much as the batch, not as much as the table. The
// weighted strategies — ante, rot, frequent, decay — share one sampler
// (sampler.go): per pass it folds per-tuple weights into a sum tree
// over the active bitmap, one addition per active tuple and no list of
// active positions; each of the k victims is then a descent by a
// uniform integer, a scan of one 32-position leaf and a subtraction
// along the path — O(N) additions plus O(k log N), where the code it
// replaced keyed every tuple with u^(1/w) and sorted all N to keep k.
//
// Exactness. Keeping the k largest keys u^(1/w) (Efraimidis–Spirakis)
// and drawing k times without replacement with probability proportional
// to the remaining weights are the same distribution, so the strategies
// forget as they always did; the replaced code lives on in
// reference_test.go, where a χ² test compares the two on forgotten-age
// and forgotten-access-count histograms. Weights are fixed-point
// integers, truncated, with weightOne = 2^32 for the likeliest tuple a
// strategy can describe: each is off by less than one unit, which puts
// one draw within N/Σw of the real-valued distribution in total
// variation (2^-32 for cold tuples under rot; zero for frequent, whose
// weights are integers anyway). In exchange every sum in the tree is
// exact: removing a victim leaves no drift, a variate below the total
// cannot fall off the end of a subtree, and the descent needs no
// branch. Tuples that round to weight zero (decay: over 31 half-lives
// younger than the oldest active one) stay eligible and go, oldest
// first, once no positive weight is left, so a budget is always met.
//
// Why per pass. The tree is rebuilt by every Forget rather than kept
// current across touches, appends, forgets, Vacuum and WAL replay: at
// 64–128 Ki active tuples the fold is a few hundred microseconds, and
// maintaining it would buy that back with an invariant spanning table,
// engine and durability. fifo and uniform keep their algorithms and,
// for a given seed, their victims.
package amnesia

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"amnesiadb/internal/bitvec"
	"amnesiadb/internal/table"
	"amnesiadb/internal/xrand"
)

// Strategy selects tuples to forget.
type Strategy interface {
	// Name returns the paper's label for the algorithm (used in figure
	// legends).
	Name() string
	// Forget marks up to n active tuples of t inactive and returns
	// their positions (fewer than n only when fewer than n tuples are
	// active). fifo and the sampler-backed strategies — ante, frequent,
	// decay, and rot while its high-water mark leaves enough candidates
	// — return them ascending; uniform, rot's uniform fallback and the
	// remaining strategies need not, so the callers that log them (the
	// facade's forget records, which delta-encode positions) sort only
	// a slice they find out of order. The WAL logs that answer, so it
	// must name exactly the tuples the call deactivated. The slice may
	// be reused by the strategy's next Forget.
	// Implementations must not reactivate tuples.
	Forget(t *table.Table, n int) []int
}

// New constructs a registered strategy by name. Names match the paper's
// figure legends: fifo, uniform, ante, rot, area; extensions: areav
// (value-space area), frequent, pairwise, distaligned. col is the
// attribute column used by value-aware strategies; others ignore it.
func New(name, col string, src *xrand.Source) (Strategy, error) {
	switch name {
	case "fifo":
		return NewFIFO(), nil
	case "uniform":
		return NewUniform(src), nil
	case "ante":
		return NewAnterograde(src, DefaultAnteBias), nil
	case "rot":
		return NewRot(src, DefaultRotMinAge), nil
	case "area":
		return NewArea(src, DefaultAreaCount), nil
	case "areav":
		return NewAreaValue(src, col, DefaultAreaCount), nil
	case "decay":
		return NewDecay(src, DefaultDecayHalfLife), nil
	case "frequent":
		return NewFrequent(src), nil
	case "pairwise":
		return NewPairwise(src, col), nil
	case "distaligned":
		return NewDistAligned(src, col, DefaultAlignBins), nil
	}
	return nil, fmt.Errorf("amnesia: unknown strategy %q", name)
}

// Names lists the strategy names accepted by New, paper strategies first.
func Names() []string {
	return []string{"fifo", "uniform", "ante", "rot", "area", "areav", "decay", "frequent", "pairwise", "distaligned"}
}

// ForgetOlderThan marks inactive every active tuple whose age exceeds
// maxAge batches (age 0 = the current batch) and returns their
// positions appended to dst, ascending. It is not a Strategy — it
// enforces a hard retention window (the paper's §1 "forgotten within
// the legally defined time frame" and the §5 vacuuming lineage) and
// composes with any budget strategy. The expired tuples are a position
// prefix: a binary search and the words it spans, not a table walk.
func ForgetOlderThan(t *table.Table, maxAge int, dst []int) []int {
	if maxAge < 0 {
		panic("amnesia: ForgetOlderThan with negative maxAge")
	}
	n, expired := len(dst), t.BatchStart(int32(t.Batches()-1-maxAge))
	for i := t.OldestActive(); i >= 0 && i < expired; i = t.Active().NextSet(i + 1) {
		dst = append(dst, i)
	}
	t.ForgetMany(dst[n:])
	return dst
}

// clampBudget bounds n to [0, number of active tuples].
func clampBudget(t *table.Table, n int) int {
	return max(0, min(n, t.ActiveCount()))
}

// FIFO forgets the oldest active tuples first, so the active set is a
// sliding buffer at the head of the timeline — the streaming-database
// scenario of §3.1 and the canonical retrograde amnesia.
type FIFO struct{}

// NewFIFO returns the FIFO-amnesia strategy.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements Strategy.
func (*FIFO) Name() string { return "fifo" }

// Forget implements Strategy.
func (*FIFO) Forget(t *table.Table, n int) []int {
	out := make([]int, 0, clampBudget(t, n))
	for i := t.OldestActive(); len(out) < cap(out) && i >= 0; i = t.Active().NextSet(i + 1) {
		out = append(out, i)
	}
	t.ForgetMany(out)
	return out
}

// Uniform forgets tuples chosen uniformly at random among the active set —
// the reservoir-sampling-like baseline of §3.1. Every round each active
// tuple has the same forgetting probability, so older tuples accumulate
// more exposure and fade gradually.
type Uniform struct {
	src *xrand.Source
}

// NewUniform returns the Uniform-amnesia strategy.
func NewUniform(src *xrand.Source) *Uniform {
	if src == nil {
		panic("amnesia: NewUniform with nil source")
	}
	return &Uniform{src: src}
}

// Name implements Strategy.
func (*Uniform) Name() string { return "uniform" }

// Forget implements Strategy.
func (u *Uniform) Forget(t *table.Table, n int) []int {
	n = clampBudget(t, n)
	if n == 0 {
		return nil
	}
	active := t.ActiveIndices()
	out := u.src.SampleK(n, len(active))
	for i, k := range out {
		out[i] = active[k]
	}
	t.ForgetMany(out)
	return out
}

// DefaultAnteBias is the recency-bias exponent used by New for the
// anterograde strategy. Higher values concentrate forgetting more sharply
// on recently inserted tuples; 12 reproduces the Figure 1 shape (initial
// load largely retained, updates forming the growing "black hole").
const DefaultAnteBias = 12.0

// Anterograde models the inability to accumulate new memories (§3.1):
// forgetting probability grows steeply with recency of insertion, so
// historical data is prioritised and "a new piece of information is only
// remembered if it appears too often". The weight of the i-th active tuple
// (in insertion order, rank r of a) is (r/a)^bias.
type Anterograde struct {
	src  *xrand.Source
	bias float64
	s    sampler
	w    anteWeights
}

// NewAnterograde returns the anterograde strategy with the given recency
// bias exponent (> 0).
func NewAnterograde(src *xrand.Source, bias float64) *Anterograde {
	if src == nil {
		panic("amnesia: NewAnterograde with nil source")
	}
	if bias <= 0 {
		panic("amnesia: NewAnterograde with non-positive bias")
	}
	return &Anterograde{src: src, bias: bias}
}

// Name implements Strategy.
func (*Anterograde) Name() string { return "ante" }

// Forget implements Strategy.
func (a *Anterograde) Forget(t *table.Table, n int) []int {
	n = clampBudget(t, n)
	if n == 0 {
		return nil
	}
	a.w.reset(t.Active(), a.bias)
	out := a.s.sample(a.src, t.Active(), t.Len(), &a.w, n)
	t.ForgetMany(out)
	return out
}

// anteWeights prices a tuple by its rank among the tuples active when
// the pass began. The table's bitmap stays as it was until the pass
// ends (the sampler draws from its own copy), so a rank is the count of
// active tuples before the tuple's bitmap word plus a popcount.
type anteWeights struct {
	active *bitvec.Vector
	rank0  []int32  // active tuples before each bitmap word
	byRank []uint64 // weightOne * ((r+1)/a)^bias for a active tuples
}

// reset numbers the words of active and, when the active count differs
// from the last pass (at a budget it does not), reprices the ranks.
func (w *anteWeights) reset(active *bitvec.Vector, bias float64) {
	w.active = active
	w.rank0 = w.rank0[:0]
	a := 0
	for wi := 0; wi*64 < active.Len(); wi++ {
		w.rank0 = append(w.rank0, int32(a))
		a += bits.OnesCount64(active.Word(wi))
	}
	if len(w.byRank) == a {
		return
	}
	w.byRank = slices.Grow(w.byRank[:0], a)[:a]
	for r := range w.byRank {
		w.byRank[r] = uint64(weightOne * math.Pow(float64(r+1)/float64(a), bias))
	}
}

func (w *anteWeights) scan(base int, mask, u uint64) (int, uint64, uint64) {
	wi, shift := base/64, uint(base%64)
	word0, r0 := w.active.Word(wi), int(w.rank0[wi])
	var sum uint64
	for m := mask; m != 0; m &= m - 1 {
		p := bits.TrailingZeros64(m)
		c := w.byRank[r0+bits.OnesCount64(word0&(1<<(shift+uint(p))-1))]
		if sum += c; sum > u {
			return p, c, sum
		}
	}
	return -1, 0, sum
}

// DefaultRotMinAge is the high-water-mark age (in batches) below which the
// rot strategy refuses to forget a tuple, preventing it from degenerating
// into anterograde behaviour (§3.2).
const DefaultRotMinAge = 2

// Rot is the query-based strategy of §3.2: tuples are forgotten with
// probability inversely proportional to their access frequency, but only
// once they have "been part of the database long enough" (the high-water
// mark). Data the workload keeps returning stays; data nobody asks for
// rots away.
type Rot struct {
	src    *xrand.Source
	minAge int
	s      sampler
	w      accessWeights
	out    []int
}

// NewRot returns the rot strategy. minAge is the high-water mark in
// batches; tuples younger than that are protected while older eligible
// tuples remain.
func NewRot(src *xrand.Source, minAge int) *Rot {
	if src == nil {
		panic("amnesia: NewRot with nil source")
	}
	if minAge < 0 {
		panic("amnesia: NewRot with negative minAge")
	}
	return &Rot{src: src, minAge: minAge}
}

// Name implements Strategy.
func (*Rot) Name() string { return "rot" }

// Forget implements Strategy.
func (r *Rot) Forget(t *table.Table, n int) []int {
	n = clampBudget(t, n)
	if n == 0 {
		return nil
	}
	// Old enough is a batch id of at most current-minAge: a prefix.
	eligible := t.BatchStart(int32(t.Batches() - r.minAge))
	r.w = accessWeights{t: t, inverse: true}
	out := r.s.sample(r.src, t.Active(), eligible, &r.w, n)
	t.ForgetMany(out)
	if len(out) == n {
		return out
	}
	// High-water mark exhausted: fall back to uniform over what remains
	// so the storage budget is always met.
	rest := t.ActiveIndices()
	r.out = append(r.out[:0], out...)
	for _, k := range r.src.SampleK(n-len(out), len(rest)) {
		r.out = append(r.out, rest[k])
	}
	t.ForgetMany(r.out[len(out):])
	return r.out
}

// Frequent is the "totally opposite approach" of §3.2's final paragraph:
// forget data that has been accessed too often, on the theory that
// anything consumed that many times has served its purpose and should be
// transformed or summarised rather than linger in results.
type Frequent struct {
	src *xrand.Source
	s   sampler
	w   accessWeights
}

// NewFrequent returns the frequent-forget strategy.
func NewFrequent(src *xrand.Source) *Frequent {
	if src == nil {
		panic("amnesia: NewFrequent with nil source")
	}
	return &Frequent{src: src}
}

// Name implements Strategy.
func (*Frequent) Name() string { return "frequent" }

// Forget implements Strategy.
func (f *Frequent) Forget(t *table.Table, n int) []int {
	n = clampBudget(t, n)
	if n == 0 {
		return nil
	}
	f.w = accessWeights{t: t}
	out := f.s.sample(f.src, t.Active(), t.Len(), &f.w, n)
	t.ForgetMany(out)
	return out
}

// accessWeights prices a tuple by its access count c: 1+c, or
// weightOne/(1+c) when inverse — at least 1, so never out of the draw.
type accessWeights struct {
	t       *table.Table
	inverse bool
}

// inverseWeight spares the commonest access counts a 64-bit division:
// dividing every time instead costs BenchmarkForget 12-25 % at 64 Ki
// and 25-37 % at 1 Mi on rot and decay (four alternating pairs, every
// cell slower in every pair).
var inverseWeight = func() (tab [256]uint64) {
	for c := range tab {
		tab[c] = weightOne / uint64(1+c)
	}
	return tab
}()

// inverse returns weightOne/(1+c).
func inverse(c uint32) uint64 {
	if int(c) < len(inverseWeight) {
		return inverseWeight[c]
	}
	return weightOne / (1 + uint64(c))
}

func (w *accessWeights) scan(base int, mask, u uint64) (int, uint64, uint64) {
	var sum uint64
	for m := mask; m != 0; m &= m - 1 {
		p := bits.TrailingZeros64(m)
		hits := w.t.AccessCount(base + p)
		c := 1 + uint64(hits)
		if w.inverse {
			c = inverse(hits)
		}
		if sum += c; sum > u {
			return p, c, sum
		}
	}
	return -1, 0, sum
}
