package amnesia

import (
	"math"
	"math/bits"

	"amnesiadb/internal/table"
	"amnesiadb/internal/xrand"
)

// DefaultDecayHalfLife is the memory half-life, in batches, used by New
// for the decay strategy.
const DefaultDecayHalfLife = 3.0

// Decay is the human-forgetting heuristic §5 points to (Ebbinghaus-style
// retention, following the spirit of Bahr & Wood [2] and Freedman &
// Adams [6]): each tuple carries a memory strength that decays
// exponentially with age and is reinforced by every access (rehearsal).
// Tuples are forgotten with probability inversely proportional to their
// current strength, combining the temporal bias of FIFO with the
// query bias of rot in one curve:
//
//	strength(i) = (1 + accesses(i)) * 2^(-age(i)/halfLife)
type Decay struct {
	src      *xrand.Source
	halfLife float64
	s        sampler
	w        decayWeights
}

// NewDecay returns the decay strategy with the given half-life in batches
// (> 0).
func NewDecay(src *xrand.Source, halfLife float64) *Decay {
	if src == nil {
		panic("amnesia: NewDecay with nil source")
	}
	if halfLife <= 0 {
		panic("amnesia: NewDecay with non-positive half-life")
	}
	return &Decay{src: src, halfLife: halfLife}
}

// Name implements Strategy.
func (*Decay) Name() string { return "decay" }

// Forget implements Strategy.
func (d *Decay) Forget(t *table.Table, n int) []int {
	n = clampBudget(t, n)
	if n == 0 {
		return nil
	}
	d.w.reset(t, d.halfLife)
	out := d.s.sample(d.src, t.Active(), t.Len(), &d.w, n)
	t.ForgetMany(out)
	return out
}

// decayWeights prices a tuple at weightOne/strength with the age term
// taken relative to the oldest active batch, 2^-((batch-oldest)/
// halfLife), so the oldest untouched tuple weighs weightOne however old
// the table is (sampling sees only ratios; the unscaled
// 2^(age/halfLife) overflows a float64 at 1024 half-lives). A tuple
// over 31 half-lives younger than the oldest rounds to weight zero and
// is forgotten only after every older one. The term depends on the
// batch alone: one Exp2 per batch spanned, none per tuple.
type decayWeights struct {
	t      *table.Table
	young  []uint64 // young[j] = 2^31 * 2^-(j/halfLife), j batches after the oldest active
	oldest int32
}

// reset anchors the age term at t's oldest active batch and extends the
// per-batch table to the newest.
func (w *decayWeights) reset(t *table.Table, halfLife float64) {
	w.t = t
	w.oldest = t.InsertBatch(t.OldestActive())
	for j := len(w.young); j < t.Batches()-int(w.oldest); j++ {
		w.young = append(w.young, uint64(1<<31*math.Exp2(-float64(j)/halfLife)))
	}
}

func (w *decayWeights) scan(base int, mask, u uint64) (int, uint64, uint64) {
	var sum uint64
	for m := mask; m != 0; m &= m - 1 {
		p := bits.TrailingZeros64(m)
		c := w.young[w.t.InsertBatch(base+p)-w.oldest] * inverse(w.t.AccessCount(base+p)) >> 31
		if sum += c; sum > u {
			return p, c, sum
		}
	}
	return -1, 0, sum
}
