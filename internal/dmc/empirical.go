package dmc

import (
	"errors"
	"fmt"
	"math/rand"

	"bicoop/internal/prob"
)

// ErrNoSamples is returned when an empirical estimate is requested with a
// non-positive sample budget.
var ErrNoSamples = errors.New("dmc: sample count must be positive")

// EmpiricalMI estimates I(X;Y) by sampling: draw n inputs from px, pass
// each through the channel, histogram the (x, y) pairs, and compute the
// plug-in mutual information of the empirical joint. The plug-in estimator
// is biased upward by roughly (|X|-1)(|Y|-1)/(2n·ln2) bits (Miller-Madow);
// the returned bias field carries that correction so callers can subtract
// it. This closes the loop between the analytic MI path and the Sample
// path, and tests pin the two against each other.
//
//bicoop:allow deadexport — the root and dmc tests check analytic MI against sampling
func EmpiricalMI(c Channel, px prob.PMF, n int, rng *rand.Rand) (mi, biasCorrection float64, err error) {
	if n <= 0 {
		return 0, 0, ErrNoSamples
	}
	if rng == nil {
		return 0, 0, errors.New("dmc: nil RNG")
	}
	if len(px) != c.Nx() {
		return 0, 0, fmt.Errorf("%w: input %d, channel %d", ErrShape, len(px), c.Nx())
	}
	counts := prob.NewJoint(c.Nx(), c.Ny())
	for i := 0; i < n; i++ {
		x := samplePMF(px, rng)
		y := c.Sample(x, rng)
		counts.P[x][y]++
	}
	for x := range counts.P {
		for y := range counts.P[x] {
			counts.P[x][y] /= float64(n)
		}
	}
	miHat := counts.MutualInformation()
	bias := float64((c.Nx()-1)*(c.Ny()-1)) / (2 * float64(n) * ln2)
	return miHat, bias, nil
}

// ln2 in a local constant to avoid importing math for one symbol.
const ln2 = 0.6931471805599453

// samplePMF draws one index from p.
func samplePMF(p prob.PMF, rng *rand.Rand) int {
	u := rng.Float64()
	var cum float64
	for i, v := range p {
		cum += v
		if u < cum {
			return i
		}
	}
	return len(p) - 1
}
