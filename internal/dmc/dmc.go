// Package dmc models discrete memoryless channels (DMCs) as row-stochastic
// transition matrices W(y|x), the setting of Section II-III of the paper. It
// provides a validating constructor, the BSC and product channels, mutual
// information for a given input distribution, capacity via the
// Blahut-Arimoto algorithm, sampling, and a quantizer that discretizes a
// Gaussian channel into a DMC.
package dmc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"bicoop/internal/prob"
)

const tol = 1e-9

// Errors returned by this package.
var (
	ErrEmpty         = errors.New("dmc: empty channel")
	ErrRagged        = errors.New("dmc: ragged transition matrix")
	ErrNotStochastic = errors.New("dmc: rows must be probability distributions")
	ErrShape         = errors.New("dmc: dimension mismatch")
	ErrNoConverge    = errors.New("dmc: Blahut-Arimoto did not converge")
)

// Channel is a discrete memoryless channel with transition matrix
// W[x][y] = P(Y = y | X = x).
type Channel struct {
	W [][]float64
}

// New builds a channel from a transition matrix, validating row-stochasticity.
func New(w [][]float64) (Channel, error) {
	if len(w) == 0 || len(w[0]) == 0 {
		return Channel{}, ErrEmpty
	}
	ny := len(w[0])
	for x, row := range w {
		if len(row) != ny {
			return Channel{}, fmt.Errorf("%w: row %d has %d entries, want %d", ErrRagged, x, len(row), ny)
		}
		var sum float64
		for y, v := range row {
			if v < -tol {
				return Channel{}, fmt.Errorf("%w: W[%d][%d] = %g", ErrNotStochastic, x, y, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			return Channel{}, fmt.Errorf("%w: row %d sums to %g", ErrNotStochastic, x, sum)
		}
	}
	return Channel{W: w}, nil
}

// Nx returns the input alphabet size.
func (c Channel) Nx() int { return len(c.W) }

// Ny returns the output alphabet size.
func (c Channel) Ny() int {
	if len(c.W) == 0 {
		return 0
	}
	return len(c.W[0])
}

// BSC returns a binary symmetric channel with crossover probability eps.
func BSC(eps float64) Channel {
	return Channel{W: [][]float64{
		{1 - eps, eps},
		{eps, 1 - eps},
	}}
}

// Noiseless returns the identity channel over n symbols.
//
//bicoop:allow deadexport — builds mismatched alphabets in the protocols tests
func Noiseless(n int) Channel {
	w := make([][]float64, n)
	for x := range w {
		w[x] = make([]float64, n)
		w[x][x] = 1
	}
	return Channel{W: w}
}

// Product returns the product channel (c1 x c2) whose input (x1,x2) and
// output (y1,y2) are indexed as x1*c2.Nx()+x2 and y1*c2.Ny()+y2.
//
//bicoop:allow deadexport — builds the relay MAC in the root, dmc and protocols tests
func Product(c1, c2 Channel) Channel {
	nx, ny := c1.Nx()*c2.Nx(), c1.Ny()*c2.Ny()
	out := make([][]float64, nx)
	for x1 := 0; x1 < c1.Nx(); x1++ {
		for x2 := 0; x2 < c2.Nx(); x2++ {
			row := make([]float64, ny)
			for y1 := 0; y1 < c1.Ny(); y1++ {
				for y2 := 0; y2 < c2.Ny(); y2++ {
					row[y1*c2.Ny()+y2] = c1.W[x1][y1] * c2.W[x2][y2]
				}
			}
			out[x1*c2.Nx()+x2] = row
		}
	}
	return Channel{W: out}
}

// MutualInformation returns I(X;Y) in bits when px drives the channel.
func (c Channel) MutualInformation(px prob.PMF) (float64, error) {
	j, err := prob.JointFromInputChannel(px, c.W)
	if err != nil {
		return 0, err
	}
	return j.MutualInformation(), nil
}

// OutputDist returns the output distribution induced by px.
func (c Channel) OutputDist(px prob.PMF) (prob.PMF, error) {
	if len(px) != c.Nx() {
		return nil, fmt.Errorf("%w: input %d, channel %d", ErrShape, len(px), c.Nx())
	}
	out := make(prob.PMF, c.Ny())
	for x, row := range c.W {
		if px[x] == 0 {
			continue
		}
		for y, v := range row {
			out[y] += px[x] * v
		}
	}
	return out, nil
}

// Sample draws one channel output for input x using r.
func (c Channel) Sample(x int, r *rand.Rand) int {
	u := r.Float64()
	var cum float64
	row := c.W[x]
	for y, v := range row {
		cum += v
		if u < cum {
			return y
		}
	}
	return len(row) - 1
}

// CapacityResult carries the outcome of a Blahut-Arimoto run.
type CapacityResult struct {
	// Capacity in bits per channel use.
	Capacity float64
	// Input is the capacity-achieving input distribution found.
	Input prob.PMF
	// Iterations actually performed.
	Iterations int
}

// Capacity computes the channel capacity by the Blahut-Arimoto algorithm to
// absolute accuracy eps (in bits), up to maxIter iterations. A non-positive
// eps defaults to 1e-10, a non-positive maxIter to 10000.
func (c Channel) Capacity(eps float64, maxIter int) (CapacityResult, error) {
	if c.Nx() == 0 || c.Ny() == 0 {
		return CapacityResult{}, ErrEmpty
	}
	if eps <= 0 {
		eps = 1e-10
	}
	if maxIter <= 0 {
		maxIter = 10000
	}
	nx, ny := c.Nx(), c.Ny()
	px := prob.NewUniform(nx)
	d := make([]float64, nx) // D(W(.|x) || q) per input, in bits
	for iter := 1; iter <= maxIter; iter++ {
		q, err := c.OutputDist(px)
		if err != nil {
			return CapacityResult{}, err
		}
		// d[x] = sum_y W(y|x) log2( W(y|x)/q(y) ).
		lower := math.Inf(-1) // I(px) = sum_x px[x] d[x]
		upper := math.Inf(-1) // max_x d[x]
		var ilow float64
		for x := 0; x < nx; x++ {
			var dx float64
			for y := 0; y < ny; y++ {
				w := c.W[x][y]
				if w > 0 {
					dx += w * math.Log2(w/q[y])
				}
			}
			d[x] = dx
			ilow += px[x] * dx
			if dx > upper {
				upper = dx
			}
		}
		lower = ilow
		if upper-lower < eps {
			return CapacityResult{Capacity: lower, Input: px, Iterations: iter}, nil
		}
		// Multiplicative update: px[x] ∝ px[x] · 2^{d[x]}. Subtract the max
		// exponent for numerical stability.
		var sum float64
		for x := 0; x < nx; x++ {
			px[x] *= math.Exp2(d[x] - upper)
			sum += px[x]
		}
		for x := 0; x < nx; x++ {
			px[x] /= sum
		}
	}
	return CapacityResult{}, fmt.Errorf("%w after %d iterations", ErrNoConverge, maxIter)
}

// QuantizeAWGN discretizes a real AWGN channel Y = sqrt(snr)·X + Z (X = ±1
// BPSK, Z ~ N(0,1)) into a DMC with nOut equiprobable-width output bins over
// [-lim, lim] (plus the two tails). The resulting DMC capacity converges to
// the BPSK-constrained AWGN capacity as nOut grows, which tests pin against
// C(snr) at low SNR.
func QuantizeAWGN(snr float64, nOut int, lim float64) (Channel, error) {
	if nOut < 2 {
		return Channel{}, fmt.Errorf("dmc: need at least 2 output bins, got %d", nOut)
	}
	if lim <= 0 {
		lim = 4 + math.Sqrt(snr)
	}
	amp := math.Sqrt(snr)
	edges := make([]float64, nOut+1)
	edges[0] = math.Inf(-1)
	for i := 1; i < nOut; i++ {
		edges[i] = -lim + 2*lim*float64(i)/float64(nOut)
	}
	edges[nOut] = math.Inf(1)
	gaussCDF := func(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }
	w := make([][]float64, 2)
	for xi, mean := range []float64{-amp, amp} {
		row := make([]float64, nOut)
		for y := 0; y < nOut; y++ {
			row[y] = gaussCDF(edges[y+1]-mean) - gaussCDF(edges[y]-mean)
		}
		// Renormalize away any rounding residue.
		var sum float64
		for _, v := range row {
			sum += v
		}
		for y := range row {
			row[y] /= sum
		}
		w[xi] = row
	}
	return Channel{W: w}, nil
}
