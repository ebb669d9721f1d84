package prob

import (
	"math"
	"math/rand"
)

// WordBernoulli draws 64 independent Bernoulli(p) bits at a time as one
// uint64 mask — the word-parallel replacement for 64 separate
// rng.Float64() < p comparisons in the bit-true simulators' erasure
// sampling. The success probability is held in 64-bit fixed point
// (weight 2^-1 at the MSB), eleven bits finer than a Float64 draw can
// resolve, so the per-lane marginal matches the scalar oracle exactly at
// float64 precision.
//
// Sampling uses bit-sliced binary refinement: round i draws one Uint64
// whose lane bits are the i-th binary digit of each lane's virtual uniform
// U_j, and compares them against the i-th digit of p. A lane is decided the
// first round its digit differs from p's (U_j < p iff the lane bit is 0
// where p's is 1), so each round resolves half the undecided lanes in
// expectation and a full 64-lane mask costs ~log2(64)+2 ≈ 8 Uint64 draws —
// and exactly ceil(-log2(ulp)) draws in the worst case. Dyadic p is even
// cheaper: the refinement stops when p has no digits left (p = 1/2 is a
// single draw). The draw count depends only on p's digits and the drawn
// words, so a fixed seed yields a fixed mask stream.
//
// The zero value is Bernoulli(0): Mask always returns 0.
type WordBernoulli struct {
	// bits is p in 64-bit fixed point: p ≈ bits/2^64, MSB first.
	bits uint64
	// full marks p == 1, which fixed point cannot represent.
	full bool
}

// NewWordBernoulli returns a sampler with success probability p. Following
// the package's lenient-constructor convention (NewUniform), p is
// clamped into [0, 1]; NaN clamps to 0.
func NewWordBernoulli(p float64) WordBernoulli {
	if math.IsNaN(p) || p <= 0 {
		return WordBernoulli{}
	}
	if p >= 1 {
		return WordBernoulli{full: true}
	}
	// Exact binary scaling: p < 1 keeps p * 2^64 below 2^64, and a float64
	// product by a power of two loses no mantissa bits. Truncation to
	// uint64 biases the marginal by less than 2^-64.
	return WordBernoulli{bits: uint64(p * 0x1p64)}
}

// Mask draws the next 64-lane word: bit j is 1 with probability p,
// independent across lanes and across calls. The caller owns tail masking
// when fewer than 64 lanes are live.
//
//bicoop:noalloc
func (g WordBernoulli) Mask(r *rand.Rand) uint64 {
	if g.full {
		return ^uint64(0)
	}
	rest := g.bits
	if rest == 0 {
		return 0
	}
	var ones uint64
	undecided := ^uint64(0)
	for {
		u := r.Uint64()
		if rest&(1<<63) != 0 {
			// p's digit is 1: lanes whose digit is 0 decide U < p.
			ones |= undecided &^ u
			undecided &= u
		} else {
			// p's digit is 0: lanes whose digit is 1 decide U >= p.
			undecided &^= u
		}
		rest <<= 1
		if undecided == 0 || rest == 0 {
			// rest == 0: every remaining digit of p is 0, so no still-tied
			// lane can end below p — they all decide 0.
			return ones
		}
	}
}
