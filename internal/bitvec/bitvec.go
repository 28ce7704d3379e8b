// Package bitvec implements the dense bitmaps amnesiadb uses to mark tuples
// as active or forgotten. The representation is a []uint64 with the usual
// word-parallel operations: set/clear/test, popcount, iteration over set
// bits, and in-place set algebra. Bit i corresponds to tuple position i in
// a table's insertion order.
package bitvec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

const wordBits = 64

// Vector is a fixed-length bitmap. The zero value is an empty vector of
// length 0; use New for a sized one. Vectors are not safe for concurrent
// mutation.
type Vector struct {
	words []uint64
	n     int // logical length in bits
}

// New returns a Vector of n bits, all clear. It panics if n < 0.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: New with negative length")
	}
	return &Vector{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// NewSet returns a Vector of n bits, all set.
func NewSet(n int) *Vector {
	v := New(n)
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.trim()
	return v
}

// FromBytes returns an n-bit Vector whose bit i is bit i%8 of b[i/8],
// the layout Bytes produces; bits of b at or beyond n are dropped. It
// panics if b holds fewer than n bits.
func FromBytes(b []byte, n int) *Vector {
	if len(b) < (n+7)/8 {
		panic(fmt.Sprintf("bitvec: %d bytes for %d bits", len(b), n))
	}
	v := New(n)
	var w [8]byte
	for i := range v.words {
		clear(w[:])
		copy(w[:], b[i*8:])
		v.words[i] = binary.LittleEndian.Uint64(w[:])
	}
	v.trim()
	return v
}

// Bytes returns the vector as (Len+7)/8 bytes, bit i in bit i%8 of
// byte i/8.
func (v *Vector) Bytes() []byte {
	b := make([]byte, 0, len(v.words)*8)
	for _, w := range v.words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b[:(v.n+7)/8]
}

// Len returns the logical length in bits.
func (v *Vector) Len() int { return v.n }

// Word returns the i'th 64-bit word: bit b of the result is bit
// i*64 + b of the vector. Bits at or beyond Len are always zero. The
// scan kernels use Word to intersect a block's row range with the
// active bitmap one word at a time instead of one Test call per row.
func (v *Vector) Word(i int) uint64 { return v.words[i] }

// check panics when i is out of [0, n).
func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0, %d)", i, v.n))
	}
}

// Set sets bit i.
func (v *Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear clears bit i.
func (v *Vector) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Test reports whether bit i is set.
func (v *Vector) Test(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// SetTo sets bit i to b.
func (v *Vector) SetTo(i int, b bool) {
	if b {
		v.Set(i)
	} else {
		v.Clear(i)
	}
}

// Grow extends the vector to length n bits, the new bits clear. Growing to
// a smaller or equal length is a no-op.
func (v *Vector) Grow(n int) {
	if n <= v.n {
		return
	}
	need := (n + wordBits - 1) / wordBits
	if need > len(v.words) {
		nw := make([]uint64, need)
		copy(nw, v.words)
		v.words = nw
	}
	v.n = n
}

// GrowSet extends the vector to length n bits with the new bits set.
// The fill runs word-parallel, so appending a large batch of active
// tuples costs O(words), not O(bits).
func (v *Vector) GrowSet(n int) {
	old := v.n
	v.Grow(n)
	if n <= old {
		return
	}
	first, last := old/wordBits, (n-1)/wordBits
	for wi := first; wi <= last; wi++ {
		w := ^uint64(0)
		if wi == first {
			w <<= uint(old) % wordBits
		}
		if wi == last {
			if r := n % wordBits; r != 0 {
				w &= (1 << uint(r)) - 1
			}
		}
		v.words[wi] |= w
	}
}

// Count returns the number of set bits.
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// CountRange returns the number of set bits in [lo, hi).
func (v *Vector) CountRange(lo, hi int) int {
	if lo < 0 || hi > v.n || lo > hi {
		panic(fmt.Sprintf("bitvec: CountRange [%d, %d) out of range [0, %d]", lo, hi, v.n))
	}
	c := 0
	for i := lo; i < hi && i%wordBits != 0; i++ {
		if v.Test(i) {
			c++
		}
		lo++
	}
	for ; lo+wordBits <= hi; lo += wordBits {
		c += bits.OnesCount64(v.words[lo/wordBits])
	}
	for i := lo; i < hi; i++ {
		if v.Test(i) {
			c++
		}
	}
	return c
}

// Ranks returns the old-to-new position map of a compaction of n
// positions that keeps v's set bits: entry i is the number of set bits
// below i where bit i is set, -1 where it is clear. It walks v a word
// at a time, with no branch per bit.
func (v *Vector) Ranks(n int) []int32 {
	out := make([]int32, n)
	next := int32(0)
	for base := 0; base < n; base += wordBits {
		w := v.words[base/wordBits]
		span := out[base:min(base+wordBits, n)]
		for j := range span {
			bit := int32(w >> uint(j) & 1)
			span[j] = next&-bit | (bit - 1)
			next += bit
		}
	}
	return out
}

// Keep returns the elements s[i] whose bit i is set in v, in order, in
// a slice of exactly that length; s may be shorter than v. It walks v a
// word at a time: a full word copies its 64 elements at once, an empty
// one costs nothing.
func Keep[T any](v *Vector, s []T) []T {
	out := make([]T, 0, v.CountRange(0, len(s)))
	for base := 0; base < len(s); base += wordBits {
		w := v.words[base/wordBits]
		if rest := len(s) - base; rest < wordBits {
			w &= 1<<uint(rest) - 1
		}
		if w == ^uint64(0) {
			out = append(out, s[base:base+wordBits]...)
			continue
		}
		for ; w != 0; w &= w - 1 {
			out = append(out, s[base+bits.TrailingZeros64(w)])
		}
	}
	return out
}

// trim clears the spare bits beyond n in the last word so that Count and
// word-level algebra remain exact.
func (v *Vector) trim() {
	if r := v.n % wordBits; r != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << uint(r)) - 1
	}
}

// ForEachSet calls fn for each set bit in ascending order. Returning false
// from fn stops the iteration early.
func (v *Vector) ForEachSet(fn func(i int) bool) {
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// ForEachClear calls fn for each clear bit below Len in ascending order.
// Returning false stops early.
func (v *Vector) ForEachClear(fn func(i int) bool) {
	for wi := range v.words {
		w := ^v.words[wi]
		for w != 0 {
			b := bits.TrailingZeros64(w)
			i := wi*wordBits + b
			if i >= v.n {
				return
			}
			if !fn(i) {
				return
			}
			w &= w - 1
		}
	}
}

// SetIndices returns the positions of all set bits.
func (v *Vector) SetIndices() []int {
	out := make([]int, 0, v.Count())
	v.ForEachSet(func(i int) bool { out = append(out, i); return true })
	return out
}

// ClearIndices returns the positions of all clear bits below Len.
func (v *Vector) ClearIndices() []int {
	out := make([]int, 0, v.n-v.Count())
	v.ForEachClear(func(i int) bool { out = append(out, i); return true })
	return out
}

// NextSet returns the position of the first set bit at or after i, or -1.
func (v *Vector) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= v.n {
		return -1
	}
	wi := i / wordBits
	w := v.words[wi] >> (uint(i) % wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(v.words); wi++ {
		if v.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(v.words[wi])
		}
	}
	return -1
}

// NextClear returns the position of the first clear bit at or after i and
// below Len, or -1.
func (v *Vector) NextClear(i int) int {
	if i < 0 {
		i = 0
	}
	for ; i < v.n; i++ {
		wi := i / wordBits
		w := ^v.words[wi] >> (uint(i) % wordBits)
		if w == 0 {
			i = (wi+1)*wordBits - 1
			continue
		}
		j := i + bits.TrailingZeros64(w)
		if j >= v.n {
			return -1
		}
		return j
	}
	return -1
}

// And replaces v with v AND other. Lengths must match.
func (v *Vector) And(other *Vector) {
	v.sameLen(other)
	for i := range v.words {
		v.words[i] &= other.words[i]
	}
}

// Or replaces v with v OR other. Lengths must match.
func (v *Vector) Or(other *Vector) {
	v.sameLen(other)
	for i := range v.words {
		v.words[i] |= other.words[i]
	}
}

// AndNot replaces v with v AND NOT other. Lengths must match.
func (v *Vector) AndNot(other *Vector) {
	v.sameLen(other)
	for i := range v.words {
		v.words[i] &^= other.words[i]
	}
}

// Not inverts all bits below Len.
func (v *Vector) Not() {
	for i := range v.words {
		v.words[i] = ^v.words[i]
	}
	v.trim()
}

// Clone returns a deep copy of v.
func (v *Vector) Clone() *Vector {
	w := &Vector{words: make([]uint64, len(v.words)), n: v.n}
	copy(w.words, v.words)
	return w
}

// Reset clears every bit.
func (v *Vector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

func (v *Vector) sameLen(other *Vector) {
	if v.n != other.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, other.n))
	}
}

// String renders the vector as a 0/1 string, bit 0 first. Intended for
// tests and small debug dumps only.
func (v *Vector) String() string {
	buf := make([]byte, v.n)
	for i := 0; i < v.n; i++ {
		if v.Test(i) {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}
