// Package xmath provides the small numerical toolkit shared by every other
// package in this module: decibel conversions, the Shannon rate function
// C(x) = log2(1+x), clamping, grid generation, and the comparison and
// entropy helpers that several packages' tests share.
//
// Everything in this package is pure and allocation-light; none of it retains
// state between calls.
package xmath

import "math"

// DB converts a linear power ratio to decibels. DB(0) is -Inf; negative
// inputs yield NaN, mirroring math.Log10.
func DB(linear float64) float64 {
	return 10 * math.Log10(linear)
}

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 {
	return math.Pow(10, db/10)
}

// C is the AWGN rate function C(x) = log2(1 + x) in bits per channel use,
// defined for x >= 0 (Section IV of the paper). For negative x it returns 0
// rather than NaN: the callers always pass received SNRs, and a tiny negative
// value can only arise from float cancellation.
func C(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Log2(1 + x)
}

// EntropyBinary returns the binary entropy function h(p) in bits.
// h(0) = h(1) = 0.
//
//bicoop:allow deadexport — reference formula for the dmc, prob, protocols and xmath tests
func EntropyBinary(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// ApproxEqual reports whether a and b are equal within both an absolute
// tolerance and a relative tolerance scaled by the larger magnitude.
// NaNs are never equal; equal infinities are equal.
//
//bicoop:allow deadexport — tolerance check for the root, channel, dmc, phy, prob, protocols, region, sim, simplex and xmath tests
func ApproxEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b {
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false // unequal infinities, or one finite and one infinite
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Linspace returns n evenly spaced samples over [lo, hi] inclusive.
// n must be at least 2 except that n == 1 yields just {lo}.
func Linspace(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi // avoid accumulated rounding at the endpoint
	return out
}

// Sum returns the plain sum of xs.
//
//bicoop:allow deadexport — the protocols and sim tests check that durations sum to one
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
