// Package dist generates the four synthetic data distributions of the
// paper's evaluation (§4.1): serial (monotonically increasing keys),
// uniform, normal ("a normal distribution around the middle of the
// domain"), and zipfian (the skewed 80-20 shape of §4.1's "skewed"
// series). Every generator draws from an internal/xrand stream, so runs
// with equal seeds produce bit-identical value sequences.
package dist

import (
	"fmt"

	"amnesiadb/internal/xrand"
)

// Kind identifies a data distribution.
type Kind int

// The four distributions of the paper's evaluation.
const (
	// Serial produces 0, 1, 2, ... wrapping at the domain bound —
	// monotone keys and timestamps.
	Serial Kind = iota
	// Uniform draws uniformly over [0, domain).
	Uniform
	// Normal draws a truncated normal centred at domain/2 with standard
	// deviation domain/8.
	Normal
	// Zipf draws a Zipfian (theta = 1) rank over [0, domain); rank 0 is
	// the most frequent value.
	Zipf
)

// Kinds lists every distribution in the order the paper's figures use.
var Kinds = []Kind{Serial, Uniform, Normal, Zipf}

// String returns the name used in figures and CSV headers.
func (k Kind) String() string {
	switch k {
	case Serial:
		return "serial"
	case Uniform:
		return "uniform"
	case Normal:
		return "normal"
	case Zipf:
		return "zipfian"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Generator produces an endless deterministic stream of attribute values
// in [0, domain) following one distribution. It is not safe for
// concurrent use; give each goroutine its own generator via Source.Split.
type Generator struct {
	kind   Kind
	domain int64
	src    *xrand.Source
	serial int64
	zipf   *xrand.Zipf
}

// zipfTheta is the exponent of the zipfian generator; 1.0 reproduces the
// Pareto 80-20 skew the paper's "skewed" series models.
const zipfTheta = 1.0

// NewGenerator returns a generator for kind over the half-open value
// domain [0, domain). It panics if domain <= 0 or kind is invalid.
func NewGenerator(kind Kind, domain int64, src *xrand.Source) *Generator {
	if domain <= 0 {
		panic(fmt.Sprintf("dist: domain %d must be positive", domain))
	}
	if src == nil {
		panic("dist: NewGenerator with nil source")
	}
	g := &Generator{kind: kind, domain: domain, src: src}
	switch kind {
	case Serial, Uniform, Normal:
	case Zipf:
		g.zipf = xrand.NewZipf(src, uint64(domain), zipfTheta)
	default:
		panic(fmt.Sprintf("dist: invalid kind %d", int(kind)))
	}
	return g
}

// Kind returns the generator's distribution.
func (g *Generator) Kind() Kind { return g.kind }

// Next returns the next value of the stream.
func (g *Generator) Next() int64 {
	switch g.kind {
	case Serial:
		v := g.serial
		g.serial++
		if g.serial == g.domain {
			g.serial = 0
		}
		return v
	case Uniform:
		return g.src.Int63n(g.domain)
	case Normal:
		mean := float64(g.domain) / 2
		sd := float64(g.domain) / 8
		for {
			v := int64(mean + sd*g.src.NormFloat64())
			if v >= 0 && v < g.domain {
				return v
			}
		}
	case Zipf:
		return int64(g.zipf.Next())
	default:
		panic(fmt.Sprintf("dist: invalid kind %d", int(g.kind)))
	}
}

// Batch fills and returns a slice of n values, reusing buf's backing
// array when it has the capacity — the same caller-provided-buffer
// convention the batch scan kernels use.
func (g *Generator) Batch(buf []int64, n int) []int64 {
	if cap(buf) < n {
		buf = make([]int64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = g.Next()
	}
	return buf
}
