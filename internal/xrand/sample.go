package xrand

// Shuffle permutes the first n positions using swap, via Fisher-Yates.
// It panics if n < 0.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("xrand: Shuffle with n < 0")
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// SampleK returns k distinct positions drawn uniformly from [0, n).
// It panics if k > n or either argument is negative.
//
// Two regimes: when k is a large fraction of n a partial Fisher-Yates over
// a dense index array is cheapest; when k << n, Floyd's algorithm avoids
// materialising [0, n).
func (s *Source) SampleK(k, n int) []int {
	switch {
	case k < 0 || n < 0:
		panic("xrand: SampleK with negative argument")
	case k > n:
		panic("xrand: SampleK with k > n")
	case k == 0:
		return nil
	}
	if k*4 >= n {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		// Partial shuffle: after i swaps the first i entries are a
		// uniform i-subset in uniform order.
		for i := 0; i < k; i++ {
			j := i + s.Intn(n-i)
			idx[i], idx[j] = idx[j], idx[i]
		}
		return idx[:k:k]
	}
	// Floyd's subset sampling.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := s.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	// Floyd yields a uniform subset but a biased order; shuffle for
	// callers that consume positionally.
	s.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Reservoir maintains a uniform k-sample over a stream of unknown length
// (Vitter's Algorithm R). The paper's Uniform-amnesia strategy is "similar
// to the reservoir sampling technique [19]"; this type is the literal
// implementation used both by that strategy and by its tests as an oracle.
type Reservoir struct {
	src  *Source
	k    int
	seen int
	keep []int64
}

// NewReservoir returns a reservoir of capacity k. It panics if k <= 0.
func NewReservoir(src *Source, k int) *Reservoir {
	if k <= 0 {
		panic("xrand: NewReservoir with k <= 0")
	}
	return &Reservoir{src: src, k: k, keep: make([]int64, 0, k)}
}

// Offer presents the next stream element. It reports whether the element
// was admitted to the sample.
func (r *Reservoir) Offer(v int64) bool {
	r.seen++
	if len(r.keep) < r.k {
		r.keep = append(r.keep, v)
		return true
	}
	j := r.src.Intn(r.seen)
	if j < r.k {
		r.keep[j] = v
		return true
	}
	return false
}

// Sample returns the current sample. The slice aliases internal state; the
// caller must not retain it across Offer calls.
func (r *Reservoir) Sample() []int64 { return r.keep }

// Seen returns the number of elements offered so far.
func (r *Reservoir) Seen() int { return r.seen }
