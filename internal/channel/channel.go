// Package channel models the paper's Section IV physical layer: a three-node
// Gaussian network (terminals a, b and relay r) with reciprocal effective
// power gains Gij = |gij|² combining quasi-static fading and path loss, unit
// complex AWGN, per-node per-phase transmit power P, and full CSI. It
// provides the link-rate functions C(P·G) consumed by the protocol bound
// evaluators, a line geometry with a path-loss exponent for relay-placement
// sweeps, and a Rayleigh quasi-static block-fading sampler.
package channel

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"bicoop/internal/xmath"
)

// Errors returned by this package.
var (
	ErrNonPositive = errors.New("channel: gains and power must be positive")
	ErrGeometry    = errors.New("channel: relay must lie strictly between the terminals")
)

// Gains holds the three effective power gains of the network, linear scale.
// The channels are reciprocal (gij = gji), so three values suffice.
type Gains struct {
	// AB is the direct terminal-terminal gain Gab.
	AB float64
	// AR is the terminal-a-to-relay gain Gar.
	AR float64
	// BR is the terminal-b-to-relay gain Gbr.
	BR float64
}

// GainsFromDB builds Gains from decibel values.
func GainsFromDB(abDB, arDB, brDB float64) Gains {
	return Gains{
		AB: xmath.FromDB(abDB),
		AR: xmath.FromDB(arDB),
		BR: xmath.FromDB(brDB),
	}
}

// Validate checks all gains are positive and finite.
func (g Gains) Validate() error {
	for _, v := range []float64{g.AB, g.AR, g.BR} {
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: %+v", ErrNonPositive, g)
		}
	}
	return nil
}

// Swap returns the gains with the roles of a and b exchanged. Protocol
// regions must be symmetric under this swap combined with (Ra, Rb) swap;
// tests rely on it.
//
//bicoop:allow deadexport — the channel and protocols tests check a<->b symmetry
func (g Gains) Swap() Gains {
	return Gains{AB: g.AB, AR: g.BR, BR: g.AR}
}

// String renders the gains in decibels.
func (g Gains) String() string {
	return fmt.Sprintf("Gab=%.2fdB Gar=%.2fdB Gbr=%.2fdB",
		xmath.DB(g.AB), xmath.DB(g.AR), xmath.DB(g.BR))
}

// LineGeometry places the relay on the segment between terminals a and b
// (distance normalized to 1) and derives gains from a path-loss law
// G = d^(-gamma). This realizes the paper's "Gaussian case with path loss"
// and the cellular scenario of its introduction (a = mobile, b = base
// station, r = relay station).
type LineGeometry struct {
	// RelayPos is the relay's position d_ar in (0, 1) along the a-b segment.
	RelayPos float64
	// Exponent is the path-loss exponent gamma (2 free space .. 4 urban).
	Exponent float64
	// RefGainAB optionally scales the whole law so that Gab equals this
	// value (linear); zero means Gab = 1 (0 dB), matching Fig 3's Gab = 0 dB.
	RefGainAB float64
}

// Gains converts the geometry to effective link gains.
func (lg LineGeometry) Gains() (Gains, error) {
	if !(lg.RelayPos > 0 && lg.RelayPos < 1) {
		return Gains{}, fmt.Errorf("%w: position %g", ErrGeometry, lg.RelayPos)
	}
	gamma := lg.Exponent
	if gamma <= 0 {
		gamma = 3
	}
	ref := lg.RefGainAB
	if ref <= 0 {
		ref = 1
	}
	// Gab = ref · 1^{-gamma} = ref; relay link gains scale with distance.
	return Gains{
		AB: ref,
		AR: ref * math.Pow(lg.RelayPos, -gamma),
		BR: ref * math.Pow(1-lg.RelayPos, -gamma),
	}, nil
}

// LinkRate returns the point-to-point rate C(P·G) = log2(1 + P·G) of a
// single link under transmit power p and gain g, unit noise.
func LinkRate(p, g float64) float64 {
	return xmath.C(p * g)
}

// MACRates bundles the multiple-access constraints at the relay when both
// terminals transmit simultaneously with power p (phases 1 of MABC, 3 of
// HBC): individual rates C(P·Gar), C(P·Gbr) and the sum rate
// C(P·Gar + P·Gbr).
type MACRates struct {
	A, B, Sum float64
}

// MAC returns the Gaussian MAC rate triple at the relay.
func MAC(p float64, g Gains) MACRates {
	return MACRates{
		A:   xmath.C(p * g.AR),
		B:   xmath.C(p * g.BR),
		Sum: xmath.C(p * (g.AR + g.BR)),
	}
}

// SIMORate returns the rate of a transmitter heard by two receivers whose
// observations are combined, C(P·(g1+g2)) — the cut-set term
// I(Xa; Yr, Yb | ·) appearing in the outer bounds (Theorems 4 and 6).
func SIMORate(p, g1, g2 float64) float64 {
	return xmath.C(p * (g1 + g2))
}

// Fading draws quasi-static Rayleigh block-fading realizations around mean
// gains: per block, Gij_inst = Gij · |h|²/E|h|² with h complex Gaussian.
// The zero value is not usable; construct with NewFading.
type Fading struct {
	mean Gains
	rng  *rand.Rand
}

// NewFading returns a fading process with the given mean gains and RNG.
// The RNG must not be shared across goroutines.
func NewFading(mean Gains, rng *rand.Rand) (*Fading, error) {
	if err := mean.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("channel: nil RNG")
	}
	return &Fading{mean: mean, rng: rng}, nil
}

// rayleighPower draws |h|² for h ~ CN(0,1): an Exp(1) variable.
func (f *Fading) rayleighPower() float64 {
	// -ln(U) with U uniform(0,1]; guard against U == 0.
	u := f.rng.Float64()
	for u == 0 {
		u = f.rng.Float64()
	}
	return -math.Log(u)
}

// Draw samples one block's instantaneous gains.
func (f *Fading) Draw() Gains {
	return Gains{
		AB: f.mean.AB * f.rayleighPower(),
		AR: f.mean.AR * f.rayleighPower(),
		BR: f.mean.BR * f.rayleighPower(),
	}
}
