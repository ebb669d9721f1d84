// Package protocols implements the paper's primary contribution: performance
// bounds for the half-duplex bidirectional relay protocols DT, MABC, TDBC and
// HBC (plus the naive four-phase baseline of Fig 1-ii). Each of Theorems 2-6
// is compiled into a set of linear constraints over (Ra, Rb, Δ1..ΔL); a
// single LP core then answers every question the evaluation section asks:
// optimal sum rate, weighted rate maxima, full achievable-rate regions, and
// rate-pair feasibility, for both the Gaussian case of Section IV and
// arbitrary discrete memoryless networks via externally supplied mutual
// informations.
package protocols

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"bicoop/internal/channel"
)

// Protocol identifies one of the paper's transmission protocols. It
// marshals as its canonical name ("MABC"), so JSON job specs and map keys
// carry names instead of bare integers.
type Protocol int

const (
	// DT is direct transmission: a->b then b->a, no relay (Fig 1-i).
	DT Protocol = iota + 1
	// Naive4 is the four-phase relay chain without network coding or side
	// information (Fig 1-ii): a->r, r->b, b->r, r->a. It is the baseline.
	Naive4
	// MABC is the two-phase multiple-access broadcast protocol (Fig 1-iv):
	// a and b transmit together, then r broadcasts wa xor wb (Theorem 2).
	MABC
	// TDBC is the three-phase time-division broadcast protocol (Fig 1-iii):
	// a->{r,b}, b->{r,a}, r broadcasts (Theorems 3-4).
	TDBC
	// HBC is the four-phase hybrid broadcast protocol: a->{r,b}, b->{r,a},
	// a+b->r, r broadcasts (Theorems 5-6).
	HBC
)

// Protocols lists all protocols in presentation order.
func Protocols() []Protocol { return []Protocol{DT, Naive4, MABC, TDBC, HBC} }

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case DT:
		return "DT"
	case Naive4:
		return "Naive4"
	case MABC:
		return "MABC"
	case TDBC:
		return "TDBC"
	case HBC:
		return "HBC"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Phases returns the number of transmission phases of the protocol, 0 for
// an unknown value.
//
//bicoop:allow deadexport — public through the bicoop.Protocol alias; root tests call it
func (p Protocol) Phases() int {
	switch p {
	case DT, MABC:
		return 2
	case TDBC:
		return 3
	case Naive4, HBC:
		return 4
	default:
		return 0
	}
}

// Validate reports an ErrUnknownProtocol for a value outside the five
// protocols.
func (p Protocol) Validate() error {
	if p < DT || p > HBC {
		return fmt.Errorf("%w: %d", ErrUnknownProtocol, int(p))
	}
	return nil
}

// Bound selects which bound of a theorem to evaluate. It marshals as
// "inner" or "outer".
type Bound int

const (
	// BoundInner is the achievable (inner) region: Theorems 2, 3, 5.
	BoundInner Bound = iota + 1
	// BoundOuter is the converse (outer) region: Theorems 2, 4, 6. For DT,
	// Naive4 and MABC the inner and outer bounds coincide (the MABC bounds
	// are tight per Theorem 2). For HBC the Gaussian evaluation is the
	// independent-input heuristic: Theorem 6's joint input makes the exact
	// Gaussian bound an open problem, which the paper does not plot.
	BoundOuter
)

// String implements fmt.Stringer.
func (b Bound) String() string {
	switch b {
	case BoundInner:
		return "inner"
	case BoundOuter:
		return "outer"
	default:
		return fmt.Sprintf("Bound(%d)", int(b))
	}
}

// Validate reports an ErrUnknownBound for a value other than BoundInner and
// BoundOuter.
func (b Bound) Validate() error {
	if b != BoundInner && b != BoundOuter {
		return fmt.Errorf("%w: %d", ErrUnknownBound, int(b))
	}
	return nil
}

// ParseProtocol resolves a protocol name (case-insensitive: "DT", "Naive4",
// "MABC", "TDBC", "HBC") to its enum value.
func ParseProtocol(name string) (Protocol, error) {
	for _, p := range Protocols() {
		if strings.EqualFold(p.String(), name) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownProtocol, name)
}

// ParseBound resolves a bound name (case-insensitive: "inner" or "outer") to
// its enum value.
func ParseBound(name string) (Bound, error) {
	for _, b := range []Bound{BoundInner, BoundOuter} {
		if strings.EqualFold(b.String(), name) {
			return b, nil
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownBound, name)
}

// MarshalText encodes the protocol as its canonical name. Unknown values
// are an error rather than a lossy encoding.
//
//bicoop:allow deadexport — encoding/json calls it for job specs and SimResult map keys
func (p Protocol) MarshalText() ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return []byte(p.String()), nil
}

// UnmarshalText decodes a case-insensitive protocol name.
//
//bicoop:allow deadexport — encoding/json calls it for job specs
func (p *Protocol) UnmarshalText(text []byte) error {
	v, err := ParseProtocol(string(text))
	if err != nil {
		return err
	}
	*p = v
	return nil
}

// MarshalText encodes the bound as "inner" or "outer".
//
//bicoop:allow deadexport — encoding/json calls it for job specs
func (b Bound) MarshalText() ([]byte, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}

// UnmarshalText decodes a case-insensitive bound name.
//
//bicoop:allow deadexport — encoding/json calls it for job specs
func (b *Bound) UnmarshalText(text []byte) error {
	v, err := ParseBound(string(text))
	if err != nil {
		return err
	}
	*b = v
	return nil
}

// Errors returned by this package.
var (
	ErrUnknownProtocol = errors.New("protocols: unknown protocol")
	ErrUnknownBound    = errors.New("protocols: unknown bound")
	ErrInvalidScenario = errors.New("protocols: invalid scenario")
	ErrBadDurations    = errors.New("protocols: invalid phase durations")
	ErrNotEvaluable    = errors.New("protocols: bound has no exact Gaussian evaluation")
)

// Scenario is a Gaussian evaluation point per Section IV: per-node per-phase
// transmit power P (linear, unit noise) and effective link gains.
type Scenario struct {
	// P is the transmit power (linear scale; the paper quotes dB).
	P float64
	// G holds the effective link power gains.
	G channel.Gains
}

// NewScenarioDB builds a scenario from dB quantities.
func NewScenarioDB(pDB, gabDB, garDB, gbrDB float64) Scenario {
	return Scenario{
		P: fromDB(pDB),
		G: channel.GainsFromDB(gabDB, garDB, gbrDB),
	}
}

// Validate checks the scenario parameters.
func (s Scenario) Validate() error {
	if !(s.P > 0) || math.IsInf(s.P, 0) {
		return fmt.Errorf("%w: power %g", ErrInvalidScenario, s.P)
	}
	if err := s.G.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidScenario, err)
	}
	return nil
}

// RatePair is an operating point (Ra, Rb) in bits per channel use.
type RatePair struct {
	Ra, Rb float64
}

// LinkInfos carries every mutual-information term the five protocols'
// theorems reference, in bits per channel use. The Gaussian path fills it in
// closed form from a Scenario; the DMC path fills it from transition matrices
// and input distributions (see DMCNetwork). All terms assume the transmitter
// set noted; silence of the remaining nodes is implicit (half-duplex).
type LinkInfos struct {
	// AtoR is I(Xa; Yr) with only a transmitting.
	AtoR float64
	// BtoR is I(Xb; Yr) with only b transmitting.
	BtoR float64
	// AtoB is I(Xa; Yb) with only a transmitting.
	AtoB float64
	// BtoA is I(Xb; Ya) with only b transmitting (equals AtoB under
	// reciprocity in the Gaussian model, but kept distinct for DMCs).
	BtoA float64
	// RtoA is I(Xr; Ya) with only r transmitting.
	RtoA float64
	// RtoB is I(Xr; Yb) with only r transmitting.
	RtoB float64
	// MACAGivenB is I(Xa; Yr | Xb) in a MAC phase (a and b transmitting).
	MACAGivenB float64
	// MACBGivenA is I(Xb; Yr | Xa) in a MAC phase.
	MACBGivenA float64
	// MACSum is I(Xa, Xb; Yr) in a MAC phase.
	MACSum float64
	// AtoRB is the cut-set SIMO term I(Xa; Yr, Yb) with only a transmitting
	// (Theorems 4 and 6 outer bounds).
	AtoRB float64
	// BtoRA is I(Xb; Yr, Ya) with only b transmitting.
	BtoRA float64
}

// LinkInfosFromScenario evaluates every term in closed form for the Gaussian
// channel with independent complex Gaussian codebooks of power P (the
// paper's Section IV evaluation; |Q| = 1 suffices there since Gaussian inputs
// maximize each term individually).
func LinkInfosFromScenario(s Scenario) (LinkInfos, error) {
	if err := s.Validate(); err != nil {
		return LinkInfos{}, err
	}
	p, g := s.P, s.G
	// The point-to-point terms alias under reciprocity (a-r, b-r and a-b
	// each appear three or two times), so each distinct rate is computed
	// once — this sits on the Monte Carlo per-block path.
	rAR := channel.LinkRate(p, g.AR)
	rBR := channel.LinkRate(p, g.BR)
	rAB := channel.LinkRate(p, g.AB)
	return LinkInfos{
		AtoR:       rAR,
		BtoR:       rBR,
		AtoB:       rAB,
		BtoA:       rAB,
		RtoA:       rAR,
		RtoB:       rBR,
		MACAGivenB: rAR,
		MACBGivenA: rBR,
		MACSum:     channel.MAC(p, g).Sum,
		AtoRB:      channel.SIMORate(p, g.AR, g.AB),
		BtoRA:      channel.SIMORate(p, g.BR, g.AB),
	}, nil
}

// Validate checks that all terms are non-negative and internally consistent
// (conditional MAC terms cannot exceed the MAC sum bound... individually they
// can, but the sum term must be at least the max of the individual terms).
func (li LinkInfos) Validate() error {
	// Checked field by field (not via a map) because validation sits on the
	// Monte Carlo per-block path and must not allocate.
	if li.AtoR >= 0 && li.BtoR >= 0 && li.AtoB >= 0 && li.BtoA >= 0 &&
		li.RtoA >= 0 && li.RtoB >= 0 &&
		li.MACAGivenB >= 0 && li.MACBGivenA >= 0 && li.MACSum >= 0 &&
		li.AtoRB >= 0 && li.BtoRA >= 0 {
		return nil
	}
	for _, t := range []struct {
		name string
		v    float64
	}{
		{"AtoR", li.AtoR}, {"BtoR", li.BtoR}, {"AtoB", li.AtoB}, {"BtoA", li.BtoA},
		{"RtoA", li.RtoA}, {"RtoB", li.RtoB},
		{"MACAGivenB", li.MACAGivenB}, {"MACBGivenA", li.MACBGivenA}, {"MACSum", li.MACSum},
		{"AtoRB", li.AtoRB}, {"BtoRA", li.BtoRA},
	} {
		if !(t.v >= 0) {
			return fmt.Errorf("protocols: non-finite or negative information term %s = %g", t.name, t.v)
		}
	}
	return fmt.Errorf("protocols: invalid information terms %+v", li)
}
