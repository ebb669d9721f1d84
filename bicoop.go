package bicoop

import (
	"errors"
	"fmt"

	"bicoop/internal/channel"
	"bicoop/internal/experiments"
	"bicoop/internal/protocols"
	"bicoop/internal/region"
	"bicoop/internal/sim"
	"bicoop/internal/xmath"
)

// Protocol selects one of the paper's transmission protocols.
type Protocol int

// The five protocols, in presentation order.
const (
	// DT is direct transmission (two phases, no relay).
	DT Protocol = iota + 1
	// Naive4 is four-phase relaying without network coding (baseline).
	Naive4
	// MABC is the two-phase multiple-access broadcast protocol.
	MABC
	// TDBC is the three-phase time-division broadcast protocol.
	TDBC
	// HBC is the four-phase hybrid broadcast protocol.
	HBC
)

// AllProtocols lists every protocol in presentation order.
func AllProtocols() []Protocol { return []Protocol{DT, Naive4, MABC, TDBC, HBC} }

// String implements fmt.Stringer.
func (p Protocol) String() string {
	ip, err := p.internal()
	if err != nil {
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
	return ip.String()
}

// Phases returns the number of transmission phases of the protocol.
func (p Protocol) Phases() int {
	ip, err := p.internal()
	if err != nil {
		return 0
	}
	return ip.Phases()
}

func (p Protocol) internal() (protocols.Protocol, error) {
	switch p {
	case DT:
		return protocols.DT, nil
	case Naive4:
		return protocols.Naive4, nil
	case MABC:
		return protocols.MABC, nil
	case TDBC:
		return protocols.TDBC, nil
	case HBC:
		return protocols.HBC, nil
	default:
		return 0, fmt.Errorf("%w: %d", ErrUnknownProtocol, int(p))
	}
}

// Bound selects the achievable (inner) or converse (outer) bound.
type Bound int

// The two bound kinds.
const (
	// Inner is the achievable region (Theorems 2, 3, 5).
	Inner Bound = iota + 1
	// Outer is the converse bound (Theorems 2, 4, 6). For DT, Naive4 and
	// MABC it coincides with Inner; for HBC the Gaussian evaluation is the
	// independent-input heuristic: Theorem 6's joint input makes the exact
	// Gaussian bound an open problem, which the paper does not plot.
	Outer
)

// String implements fmt.Stringer.
func (b Bound) String() string {
	switch b {
	case Inner:
		return "inner"
	case Outer:
		return "outer"
	default:
		return fmt.Sprintf("Bound(%d)", int(b))
	}
}

func (b Bound) internal() (protocols.Bound, error) {
	switch b {
	case Inner:
		return protocols.BoundInner, nil
	case Outer:
		return protocols.BoundOuter, nil
	default:
		return 0, fmt.Errorf("%w: %d", ErrUnknownBound, int(b))
	}
}

// Errors returned by this package.
var (
	ErrUnknownProtocol = errors.New("bicoop: unknown protocol")
	ErrUnknownBound    = errors.New("bicoop: unknown bound")
)

// Scenario is a Gaussian evaluation point in the paper's Section IV model:
// reciprocal link gains (dB), common per-node transmit power (dB over unit
// noise), full CSI.
type Scenario struct {
	// PowerDB is the per-node transmit power in dB (unit noise power).
	PowerDB float64
	// GabDB, GarDB, GbrDB are the effective link power gains in dB.
	GabDB, GarDB, GbrDB float64
}

func (s Scenario) internal() protocols.Scenario {
	return protocols.NewScenarioDB(s.PowerDB, s.GabDB, s.GarDB, s.GbrDB)
}

// RelayPlacement derives a Scenario from geometry: the relay sits at
// position Pos in (0,1) on the segment between the terminals (a at 0, b at
// 1), with path-loss exponent Exponent (defaults to 3 when zero) and the
// direct link normalized to GabDB.
type RelayPlacement struct {
	Pos      float64
	Exponent float64
	GabDB    float64
}

// Scenario converts the placement into a Scenario at the given power.
func (rp RelayPlacement) Scenario(powerDB float64) (Scenario, error) {
	g, err := (channel.LineGeometry{
		RelayPos:  rp.Pos,
		Exponent:  rp.Exponent,
		RefGainAB: xmath.FromDB(rp.GabDB),
	}).Gains()
	if err != nil {
		return Scenario{}, fmt.Errorf("bicoop: %w", err)
	}
	return Scenario{
		PowerDB: powerDB,
		GabDB:   xmath.DB(g.AB),
		GarDB:   xmath.DB(g.AR),
		GbrDB:   xmath.DB(g.BR),
	}, nil
}

// RatePoint is an operating point (Ra, Rb) in bits per channel use.
type RatePoint struct {
	Ra, Rb float64
}

// Sum returns Ra + Rb.
func (r RatePoint) Sum() float64 { return r.Ra + r.Rb }

// SumRateResult reports an LP-optimal sum rate.
type SumRateResult struct {
	// Sum is the optimal Ra+Rb in bits per channel use.
	Sum float64
	// Point is the operating point attaining it.
	Point RatePoint
	// Durations is the optimal phase-duration split (sums to one).
	Durations []float64
}

// Region is a computed rate region (a convex polygon in the non-negative
// rate quadrant).
type Region struct {
	poly region.Polygon
}

// Vertices returns the polygon's vertices in counter-clockwise order.
func (r Region) Vertices() []RatePoint {
	vs := r.poly.Vertices()
	out := make([]RatePoint, len(vs))
	for i, v := range vs {
		out[i] = RatePoint{Ra: v.Ra, Rb: v.Rb}
	}
	return out
}

// Contains reports whether the operating point lies in the region.
func (r Region) Contains(p RatePoint) bool {
	return r.poly.Contains(region.Point{Ra: p.Ra, Rb: p.Rb}, 1e-9)
}

// MaxRa returns the region's maximum one-way rate for terminal a's message.
func (r Region) MaxRa() float64 { v, _ := r.poly.Support(1, 0); return v }

// MaxRb returns the region's maximum one-way rate for terminal b's message.
func (r Region) MaxRb() float64 { v, _ := r.poly.Support(0, 1); return v }

// MaxSumRate returns the maximum Ra+Rb over the region.
func (r Region) MaxSumRate() float64 { return r.poly.MaxSumRate() }

// Area returns the region's area (a scalar summary used for comparisons).
func (r Region) Area() float64 { return r.poly.Area() }

// MaxRbAt returns the largest Rb with (ra, Rb) in the region, and whether ra
// is within the region's range.
func (r Region) MaxRbAt(ra float64) (float64, bool) { return r.poly.RbAt(ra) }

// HBCBeyondOuterBounds returns achievable HBC operating points that are
// provably outside BOTH the MABC and TDBC outer bounds at the scenario —
// the paper's "surprising" Section IV finding. An empty slice means no such
// points at this scenario.
func HBCBeyondOuterBounds(s Scenario) ([]RatePoint, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	esc, err := protocols.HBCEscapePoints(s.internal())
	if err != nil {
		return nil, fmt.Errorf("bicoop: %w", err)
	}
	out := make([]RatePoint, 0, len(esc))
	for _, e := range esc {
		out = append(out, RatePoint{Ra: e.Point.Ra, Rb: e.Point.Rb})
	}
	return out, nil
}

// FadingStats summarizes one protocol's fading performance.
type FadingStats struct {
	// MeanOptSumRate is the fading-averaged CSI-adaptive optimal sum rate.
	MeanOptSumRate float64
	// OutageProb is the fraction of blocks where Target was infeasible.
	OutageProb float64
}

// ErasureLinks specifies a three-link erasure network for the bit-true
// simulator: each link delivers a bit with probability 1-eps.
type ErasureLinks struct {
	EpsAR, EpsBR, EpsAB float64
}

// BitTrueResult reports a bit-true TDBC simulation outcome.
type BitTrueResult struct {
	// SuccessProb is the fraction of blocks with both messages exchanged.
	SuccessProb float64
	// RelayFailures and TerminalFailures split the losses by stage.
	RelayFailures, TerminalFailures int
}

// OptimalTDBCErasureRates returns the sum-rate-optimal TDBC operating point
// and durations for an erasure network (Theorem 3 with every mutual
// information term equal to one minus the link's erasure probability). Use
// it to place bit-true simulation sweeps relative to the exact boundary.
func OptimalTDBCErasureRates(links ErasureLinks) (SumRateResult, error) {
	net := sim.ErasureNetwork{EpsAR: links.EpsAR, EpsBR: links.EpsBR, EpsAB: links.EpsAB}
	if err := net.Validate(); err != nil {
		return SumRateResult{}, fmt.Errorf("bicoop: %w", err)
	}
	spec, err := protocols.Compile(protocols.TDBC, protocols.BoundInner, net.LinkInfos())
	if err != nil {
		return SumRateResult{}, fmt.Errorf("bicoop: %w", err)
	}
	opt, err := spec.MaxSumRate()
	if err != nil {
		return SumRateResult{}, fmt.Errorf("bicoop: %w", err)
	}
	return SumRateResult{
		Sum:       opt.Objective,
		Point:     RatePoint{Ra: opt.Rates.Ra, Rb: opt.Rates.Rb},
		Durations: opt.Durations,
	}, nil
}

// AmplifyForwardSumRate evaluates the two-phase amplify-and-forward scheme
// (references [7],[8] of the paper): the relay scales and retransmits its
// noisy observation instead of decoding; terminals cancel their own signal.
// A baseline against which the paper's decode-and-forward protocols are
// positioned.
func AmplifyForwardSumRate(s Scenario) (SumRateResult, error) {
	if err := s.Validate(); err != nil {
		return SumRateResult{}, err
	}
	res, err := protocols.AFSumRate(s.internal())
	if err != nil {
		return SumRateResult{}, fmt.Errorf("bicoop: %w", err)
	}
	return SumRateResult{
		Sum:       res.Sum,
		Point:     RatePoint{Ra: res.Rates.Ra, Rb: res.Rates.Rb},
		Durations: res.Durations,
	}, nil
}

// FullDuplexSumRate evaluates the full-duplex two-way decode-and-forward
// bound (reference [9]) — the ceiling the paper's half-duplex protocols
// chase.
func FullDuplexSumRate(s Scenario) (SumRateResult, error) {
	if err := s.Validate(); err != nil {
		return SumRateResult{}, err
	}
	res, err := protocols.FullDuplexSumRate(s.internal())
	if err != nil {
		return SumRateResult{}, fmt.Errorf("bicoop: %w", err)
	}
	return SumRateResult{
		Sum:   res.Sum,
		Point: RatePoint{Ra: res.Rates.Ra, Rb: res.Rates.Rb},
	}, nil
}

// HalfDuplexPenalty returns the fraction of the full-duplex DF sum rate a
// half-duplex protocol retains at the scenario (1 means no penalty).
func HalfDuplexPenalty(p Protocol, s Scenario) (float64, error) {
	ip, err := p.internal()
	if err != nil {
		return 0, err
	}
	if err := s.Validate(); err != nil {
		return 0, err
	}
	pen, err := protocols.HalfDuplexPenalty(ip, s.internal())
	if err != nil {
		return 0, fmt.Errorf("bicoop: %w", err)
	}
	return pen, nil
}

// MABCComputeForwardLinks parameterizes the compute-and-forward MABC
// simulator: erasure probabilities of the MAC phase at the relay and of the
// two broadcast links.
type MABCComputeForwardLinks struct {
	EpsMAC, EpsRA, EpsRB float64
}

// ComputeForwardBound returns the symmetric per-terminal rate bound of the
// compute-and-forward MABC scheme and the duration split achieving it (the
// Theorem 2 remark's protocol, where the relay decodes only the XOR).
func (l MABCComputeForwardLinks) ComputeForwardBound() (rate float64, durations []float64) {
	return sim.MABCComputeForwardBound(l.EpsMAC, l.EpsRA, l.EpsRB)
}

// Experiments returns the ids of every registered reproduction experiment
// (figures, claim checks, ablations and Monte Carlo extensions).
func Experiments() []string { return experiments.IDs() }

// DescribeExperiment returns an experiment's one-line description.
func DescribeExperiment(id string) (string, error) {
	d, err := experiments.Describe(id)
	if err != nil {
		return "", fmt.Errorf("bicoop: %w", err)
	}
	return d, nil
}
