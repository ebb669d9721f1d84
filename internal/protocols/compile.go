package protocols

import (
	"fmt"

	"bicoop/internal/xmath"
)

func fromDB(db float64) float64 { return xmath.FromDB(db) }

// Constraint is one linear bound of a compiled theorem:
//
//	CoefRa·Ra + CoefRb·Rb ≤ Σℓ PhaseCap[ℓ]·Δℓ.
//
// Every bound in Theorems 2-6 has this shape once the mutual-information
// terms are fixed numbers: each min(·,·) splits into separate constraints,
// and the right-hand sides are linear in the phase durations.
type Constraint struct {
	// CoefRa and CoefRb are the rate coefficients (0 or 1 in the paper).
	CoefRa, CoefRb float64
	// PhaseCap[ℓ] multiplies Δℓ on the right-hand side.
	PhaseCap []float64
	// Label names the constraint for diagnostics, e.g. "Ra <= Δ1·I(Xa;Yr|Xb)".
	Label string
}

// rhsAt evaluates the constraint's right-hand side at fixed durations.
func (c Constraint) rhsAt(durations []float64) float64 {
	var s float64
	for i, d := range durations {
		if i < len(c.PhaseCap) {
			s += c.PhaseCap[i] * d
		}
	}
	return s
}

// Spec is a compiled bound: a phase count plus the constraint list.
type Spec struct {
	// Protocol and Kind record what was compiled, for diagnostics.
	Protocol Protocol
	Kind     Bound
	// Phases is the number of phase-duration variables.
	Phases int
	// Cons is the constraint list. Rates and durations are additionally
	// constrained to be non-negative with durations summing to one.
	Cons []Constraint
	// Heuristic is true when the spec is not an exact evaluation of the
	// theorem (only the Gaussian HBC outer bound, where the paper itself
	// declines to evaluate because jointly Gaussian inputs are not known to
	// be optimal; see Section IV).
	Heuristic bool
}

// Compile builds the constraint set of the requested protocol and bound from
// the mutual-information terms. This is the single point where the paper's
// Theorems 2-6 are transcribed.
func Compile(p Protocol, b Bound, li LinkInfos) (Spec, error) {
	if err := li.Validate(); err != nil {
		return Spec{}, err
	}
	if err := b.Validate(); err != nil {
		return Spec{}, err
	}
	switch p {
	case DT:
		return compileDT(b, li), nil
	case Naive4:
		return compileNaive4(b, li), nil
	case MABC:
		return compileMABC(b, li), nil
	case TDBC:
		return compileTDBC(b, li), nil
	case HBC:
		return compileHBC(b, li), nil
	default:
		return Spec{}, fmt.Errorf("%w: %v", ErrUnknownProtocol, p)
	}
}

// compileDT transcribes the direct-transmission capacity region (Section II-C):
//
//	Ra ≤ Δ1·I(Xa;Yb),  Rb ≤ Δ2·I(Xb;Ya).
//
// Inner and outer coincide (the two-phase region is the exact capacity of
// the protocol since each phase is a point-to-point channel).
func compileDT(b Bound, li LinkInfos) Spec {
	return Spec{
		Protocol: DT,
		Kind:     b,
		Phases:   2,
		Cons: []Constraint{
			{CoefRa: 1, PhaseCap: []float64{li.AtoB, 0}, Label: "Ra <= D1*I(Xa;Yb)"},
			{CoefRb: 1, PhaseCap: []float64{0, li.BtoA}, Label: "Rb <= D2*I(Xb;Ya)"},
		},
	}
}

// compileNaive4 transcribes the naive four-phase relaying baseline of
// Fig 1-ii: each message crosses two point-to-point hops, with no network
// coding and no use of overheard side information:
//
//	Ra ≤ min(Δ1·I(Xa;Yr), Δ2·I(Xr;Yb)),
//	Rb ≤ min(Δ3·I(Xb;Yr), Δ4·I(Xr;Ya)).
//
// Inner and outer coincide for this (decode-and-forward, no-combining)
// strategy.
func compileNaive4(b Bound, li LinkInfos) Spec {
	return Spec{
		Protocol: Naive4,
		Kind:     b,
		Phases:   4,
		Cons: []Constraint{
			{CoefRa: 1, PhaseCap: []float64{li.AtoR, 0, 0, 0}, Label: "Ra <= D1*I(Xa;Yr)"},
			{CoefRa: 1, PhaseCap: []float64{0, li.RtoB, 0, 0}, Label: "Ra <= D2*I(Xr;Yb)"},
			{CoefRb: 1, PhaseCap: []float64{0, 0, li.BtoR, 0}, Label: "Rb <= D3*I(Xb;Yr)"},
			{CoefRb: 1, PhaseCap: []float64{0, 0, 0, li.RtoA}, Label: "Rb <= D4*I(Xr;Ya)"},
		},
	}
}

// compileMABC transcribes Theorem 2, the exact capacity region of the MABC
// protocol:
//
//	Ra ≤ min(Δ1·I(Xa;Yr|Xb,Q), Δ2·I(Xr;Yb|Q)),
//	Rb ≤ min(Δ1·I(Xb;Yr|Xa,Q), Δ2·I(Xr;Ya|Q)),
//	Ra + Rb ≤ Δ1·I(Xa,Xb;Yr|Q).
//
// The theorem is tight, so inner and outer compile identically. (The remark
// after Theorem 2 notes that if the relay were not required to decode both
// messages, dropping the sum constraint gives an outer bound for that wider
// protocol class; see MABCOuterNoRelayDecoding.)
func compileMABC(b Bound, li LinkInfos) Spec {
	return Spec{
		Protocol: MABC,
		Kind:     b,
		Phases:   2,
		Cons: []Constraint{
			{CoefRa: 1, PhaseCap: []float64{li.MACAGivenB, 0}, Label: "Ra <= D1*I(Xa;Yr|Xb)"},
			{CoefRa: 1, PhaseCap: []float64{0, li.RtoB}, Label: "Ra <= D2*I(Xr;Yb)"},
			{CoefRb: 1, PhaseCap: []float64{li.MACBGivenA, 0}, Label: "Rb <= D1*I(Xb;Yr|Xa)"},
			{CoefRb: 1, PhaseCap: []float64{0, li.RtoA}, Label: "Rb <= D2*I(Xr;Ya)"},
			{CoefRa: 1, CoefRb: 1, PhaseCap: []float64{li.MACSum, 0}, Label: "Ra+Rb <= D1*I(Xa,Xb;Yr)"},
		},
	}
}

// compileTDBC transcribes Theorem 3 (inner) and Theorem 4 (outer).
//
// Inner, evaluated per eqs. (22)-(23):
//
//	Ra ≤ min(Δ1·I(Xa;Yr), Δ1·I(Xa;Yb) + Δ3·I(Xr;Yb)),
//	Rb ≤ min(Δ2·I(Xb;Yr), Δ2·I(Xb;Ya) + Δ3·I(Xr;Ya)).
//
// Outer (Theorem 4): the relay-decoding terms are replaced by the SIMO
// cut-set terms and a sum-rate constraint appears:
//
//	Ra ≤ min(Δ1·I(Xa;Yr,Yb), Δ1·I(Xa;Yb) + Δ3·I(Xr;Yb)),
//	Rb ≤ min(Δ2·I(Xb;Yr,Ya), Δ2·I(Xb;Ya) + Δ3·I(Xr;Ya)),
//	Ra + Rb ≤ Δ1·I(Xa;Yr) + Δ2·I(Xb;Yr).
func compileTDBC(b Bound, li LinkInfos) Spec {
	s := Spec{Protocol: TDBC, Kind: b, Phases: 3}
	if b == BoundInner {
		s.Cons = []Constraint{
			{CoefRa: 1, PhaseCap: []float64{li.AtoR, 0, 0}, Label: "Ra <= D1*I(Xa;Yr)"},
			{CoefRa: 1, PhaseCap: []float64{li.AtoB, 0, li.RtoB}, Label: "Ra <= D1*I(Xa;Yb)+D3*I(Xr;Yb)"},
			{CoefRb: 1, PhaseCap: []float64{0, li.BtoR, 0}, Label: "Rb <= D2*I(Xb;Yr)"},
			{CoefRb: 1, PhaseCap: []float64{0, li.BtoA, li.RtoA}, Label: "Rb <= D2*I(Xb;Ya)+D3*I(Xr;Ya)"},
		}
		return s
	}
	s.Cons = []Constraint{
		{CoefRa: 1, PhaseCap: []float64{li.AtoRB, 0, 0}, Label: "Ra <= D1*I(Xa;Yr,Yb)"},
		{CoefRa: 1, PhaseCap: []float64{li.AtoB, 0, li.RtoB}, Label: "Ra <= D1*I(Xa;Yb)+D3*I(Xr;Yb)"},
		{CoefRb: 1, PhaseCap: []float64{0, li.BtoRA, 0}, Label: "Rb <= D2*I(Xb;Yr,Ya)"},
		{CoefRb: 1, PhaseCap: []float64{0, li.BtoA, li.RtoA}, Label: "Rb <= D2*I(Xb;Ya)+D3*I(Xr;Ya)"},
		{CoefRa: 1, CoefRb: 1, PhaseCap: []float64{li.AtoR, li.BtoR, 0}, Label: "Ra+Rb <= D1*I(Xa;Yr)+D2*I(Xb;Yr)"},
	}
	return s
}

// compileHBC transcribes Theorem 5 (inner) and Theorem 6 (outer).
//
// Inner:
//
//	Ra ≤ min(Δ1·I(Xa;Yr) + Δ3·I(Xa;Yr|Xb), Δ1·I(Xa;Yb) + Δ4·I(Xr;Yb)),
//	Rb ≤ min(Δ2·I(Xb;Yr) + Δ3·I(Xb;Yr|Xa), Δ2·I(Xb;Ya) + Δ4·I(Xr;Ya)),
//	Ra + Rb ≤ Δ1·I(Xa;Yr) + Δ2·I(Xb;Yr) + Δ3·I(Xa,Xb;Yr).
//
// Outer (Theorem 6): first per-user terms gain the SIMO combining
// observation, the rest is unchanged. In the Gaussian case the theorem's
// joint input p(3)(xa,xb|q) makes exact evaluation open (the paper does not
// plot it); Compile marks the Gaussian-independent-input version Heuristic.
func compileHBC(b Bound, li LinkInfos) Spec {
	s := Spec{Protocol: HBC, Kind: b, Phases: 4}
	sum := Constraint{
		CoefRa: 1, CoefRb: 1,
		PhaseCap: []float64{li.AtoR, li.BtoR, li.MACSum, 0},
		Label:    "Ra+Rb <= D1*I(Xa;Yr)+D2*I(Xb;Yr)+D3*I(Xa,Xb;Yr)",
	}
	if b == BoundInner {
		s.Cons = []Constraint{
			{CoefRa: 1, PhaseCap: []float64{li.AtoR, 0, li.MACAGivenB, 0}, Label: "Ra <= D1*I(Xa;Yr)+D3*I(Xa;Yr|Xb)"},
			{CoefRa: 1, PhaseCap: []float64{li.AtoB, 0, 0, li.RtoB}, Label: "Ra <= D1*I(Xa;Yb)+D4*I(Xr;Yb)"},
			{CoefRb: 1, PhaseCap: []float64{0, li.BtoR, li.MACBGivenA, 0}, Label: "Rb <= D2*I(Xb;Yr)+D3*I(Xb;Yr|Xa)"},
			{CoefRb: 1, PhaseCap: []float64{0, li.BtoA, 0, li.RtoA}, Label: "Rb <= D2*I(Xb;Ya)+D4*I(Xr;Ya)"},
			sum,
		}
		return s
	}
	s.Heuristic = true
	s.Cons = []Constraint{
		{CoefRa: 1, PhaseCap: []float64{li.AtoRB, 0, li.MACAGivenB, 0}, Label: "Ra <= D1*I(Xa;Yr,Yb)+D3*I(Xa;Yr|Xb)"},
		{CoefRa: 1, PhaseCap: []float64{li.AtoB, 0, 0, li.RtoB}, Label: "Ra <= D1*I(Xa;Yb)+D4*I(Xr;Yb)"},
		{CoefRb: 1, PhaseCap: []float64{0, li.BtoRA, li.MACBGivenA, 0}, Label: "Rb <= D2*I(Xb;Yr,Ya)+D3*I(Xb;Yr|Xa)"},
		{CoefRb: 1, PhaseCap: []float64{0, li.BtoA, 0, li.RtoA}, Label: "Rb <= D2*I(Xb;Ya)+D4*I(Xr;Ya)"},
		sum,
	}
	return s
}

// CompileGaussian is the Section IV entry point: evaluate the bound for a
// Gaussian scenario with independent complex Gaussian codebooks.
func CompileGaussian(p Protocol, b Bound, s Scenario) (Spec, error) {
	li, err := LinkInfosFromScenario(s)
	if err != nil {
		return Spec{}, err
	}
	return Compile(p, b, li)
}
