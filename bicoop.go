package bicoop

import (
	"fmt"

	"bicoop/internal/experiments"
	"bicoop/internal/protocols"
	"bicoop/internal/region"
	"bicoop/internal/sim"
	"bicoop/internal/sweep"
)

// Protocol selects one of the paper's transmission protocols. It is an
// alias of the internal protocols.Protocol, which carries the String,
// Phases, Validate and text-marshaling methods.
type Protocol = protocols.Protocol

// The five protocols, in presentation order: direct transmission, the
// four-phase baseline without network coding, and the paper's MABC, TDBC
// and HBC protocols.
const (
	DT     = protocols.DT
	Naive4 = protocols.Naive4
	MABC   = protocols.MABC
	TDBC   = protocols.TDBC
	HBC    = protocols.HBC
)

// AllProtocols lists every protocol in presentation order.
func AllProtocols() []Protocol { return protocols.Protocols() }

// Bound selects the achievable (inner) or converse (outer) bound. It is an
// alias of the internal protocols.Bound.
type Bound = protocols.Bound

// The two bound kinds: Inner is the achievable region (Theorems 2, 3, 5),
// Outer the converse bound (Theorems 2, 4, 6). See protocols.BoundOuter for
// where they coincide and for the HBC outer-bound heuristic.
const (
	Inner = protocols.BoundInner
	Outer = protocols.BoundOuter
)

// ParseProtocol resolves a protocol name (case-insensitive: "DT", "Naive4",
// "MABC", "TDBC", "HBC") to its enum value. Protocol marshals as the same
// name, so a bccd job spec reads {"protocols": ["MABC", "TDBC"]} and
// SimResult.Fading's map keys are names.
func ParseProtocol(name string) (Protocol, error) { return protocols.ParseProtocol(name) }

// ParseBound resolves a bound name (case-insensitive: "inner" or "outer") to
// its enum value, the name Bound marshals as.
func ParseBound(name string) (Bound, error) { return protocols.ParseBound(name) }

// Errors returned by this package for unknown enum values. They are the
// internal protocols sentinels, so errors.Is matches them wherever the
// error was raised.
var (
	ErrUnknownProtocol = protocols.ErrUnknownProtocol
	ErrUnknownBound    = protocols.ErrUnknownBound
)

// Scenario is a Gaussian evaluation point in the paper's Section IV model,
// in dB quantities. It is an alias of the internal sweep.Scenario, which
// carries the field docs and the Validate method.
type Scenario = sweep.Scenario

// RelayPlacement derives a Scenario from geometry: a relay position on the
// a-b segment, a path-loss exponent and the direct-link gain. It is an alias
// of the internal sweep.Placement, whose Scenario method resolves it at a
// power.
type RelayPlacement = sweep.Placement

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
	esc, err := protocols.HBCEscapePoints(s.Linear())
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
// simulator: each link delivers a bit with probability 1-eps. It is an alias
// of the internal sim.ErasureNetwork.
type ErasureLinks = sim.ErasureNetwork

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
	if err := links.Validate(); err != nil {
		return SumRateResult{}, fmt.Errorf("bicoop: %w", err)
	}
	spec, err := protocols.Compile(protocols.TDBC, protocols.BoundInner, links.LinkInfos())
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
	res, err := protocols.AFSumRate(s.Linear())
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
	res, err := protocols.FullDuplexSumRate(s.Linear())
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
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if err := s.Validate(); err != nil {
		return 0, err
	}
	pen, err := protocols.HalfDuplexPenalty(p, s.Linear())
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
