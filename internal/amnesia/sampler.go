package amnesia

import (
	"math"
	"math/bits"

	"amnesiadb/internal/bitvec"
	"amnesiadb/internal/xrand"
)

const (
	// leafBits positions share a leaf of the sum tree; it divides 64.
	leafBits     = 32
	leafMask     = 1<<leafBits - 1
	leavesInWord = 64 / leafBits

	// weightOne is the fixed-point weight of the likeliest tuple a
	// strategy can describe: with weights in [0, weightOne], the sum
	// over fewer than 2^31 positions fits a uint64.
	weightOne = 1 << 32
)

// weigher prices tuples for the sampler, one leaf at a time.
type weigher interface {
	// scan adds up the weights, each at most weightOne, of the positions
	// base+b for the bits b set in mask, in ascending order, and stops
	// at the first one that takes the running sum past u: it returns
	// that bit, its weight, and the sum so far. When no position does,
	// it returns bit -1 and the sum of them all. A position's weight
	// does not change during a pass.
	scan(base int, mask, u uint64) (bit int, weight, sum uint64)
}

// sampler draws k distinct positions from a bitmap with probability
// proportional to their weights, by successive sampling without
// replacement over a sum tree: a complete binary tree whose leaves hold
// the weight sums of leafBits-position blocks. A draw takes a uniform
// integer below the root's sum, descends to the leaf it falls in, scans
// that block for the victim, and subtracts the victim's weight from the
// leaf and its ancestors. Weights are integers, so every sum is exact:
// subtraction leaves no drift, a variate below the total always lands
// on a candidate, and the descent is a compare and a masked subtract
// per level with no branch to mispredict. It works on a private copy
// of the bitmap, clearing each victim's bit, and at the end reads the
// victims off as the candidates the copy lost: in position order, in
// one pass over the words the fold read, so the callers that log them
// need not sort. It keeps its arrays from one pass to the next.
type sampler struct {
	words []uint64 // candidates still undrawn
	tree  []uint64 // node i has children 2i and 2i+1; root at 1; leaves at [len/2, len)
	out   []int
}

// sample returns up to k of the positions set in active below hi, fewer
// only when fewer are set. Zero-weight positions are drawn, in ascending
// order, only once no positive weight remains. The result ascends and
// is valid until the next call.
func (s *sampler) sample(src *xrand.Source, active *bitvec.Vector, hi int, w weigher, k int) []int {
	s.out = s.out[:0]
	nw := (hi + 63) / 64
	if nw == 0 || k <= 0 {
		return s.out
	}
	leaves := 1 << bits.Len(uint(nw*leavesInWord-1))
	if cap(s.words) < nw {
		// Sized by the tree, so a growing table reallocates only when
		// its leaf count crosses a power of two.
		s.words = make([]uint64, leaves/leavesInWord)
		s.tree = make([]uint64, 2*leaves)
	}
	s.words = s.words[:nw]
	s.tree = s.tree[:2*leaves]
	tree := s.tree
	for wi := range s.words {
		word := candidates(active, hi, wi)
		s.words[wi] = word
		for l := 0; l < leavesInWord; l++ {
			var sum uint64
			if mask := word >> (l * leafBits) & leafMask; mask != 0 {
				_, _, sum = w.scan(wi*64+l*leafBits, mask, math.MaxUint64)
			}
			tree[leaves+wi*leavesInWord+l] = sum
		}
	}
	clear(tree[leaves+nw*leavesInWord:])
	for i := leaves - 1; i >= 1; i-- {
		tree[i] = tree[2*i] + tree[2*i+1]
	}

	drawn := 0
	for drawn < k && tree[1] > 0 {
		u := src.Uint64n(tree[1])
		i := 1
		for i < leaves {
			// Into the right child when u falls past the left one.
			i *= 2
			left := tree[i]
			var right uint64
			if u >= left {
				right = 1
			}
			u -= left & -right
			i += int(right)
		}
		leaf := i - leaves
		wi, shift := leaf/leavesInWord, uint(leaf%leavesInWord)*leafBits
		victim, weight, _ := w.scan(leaf*leafBits, s.words[wi]>>shift&leafMask, u)
		s.words[wi] &^= 1 << (shift + uint(victim))
		drawn++
		for ; i >= 1; i /= 2 {
			tree[i] -= weight
		}
	}
	for wi := 0; drawn < k && wi < nw; wi++ {
		for m := s.words[wi]; m != 0 && drawn < k; m &= m - 1 {
			s.words[wi] &^= m & -m
			drawn++
		}
	}
	for wi, undrawn := range s.words {
		for m := candidates(active, hi, wi) &^ undrawn; m != 0; m &= m - 1 {
			s.out = append(s.out, wi*64+bits.TrailingZeros64(m))
		}
	}
	return s.out
}

// candidates returns word wi of active with the positions from hi on
// cleared.
func candidates(active *bitvec.Vector, hi, wi int) uint64 {
	word := active.Word(wi)
	if wi == hi/64 {
		word &= 1<<(uint(hi)%64) - 1
	}
	return word
}
