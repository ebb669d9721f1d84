package protocols

import (
	"bicoop/internal/region"
)

// SumRateResult reports a protocol's optimal sum rate in a scenario along
// with the operating point and durations that achieve it.
type SumRateResult struct {
	Protocol  Protocol
	Kind      Bound
	Sum       float64
	Rates     RatePair
	Durations []float64
}

// OptimalSumRate computes the LP-optimal sum rate of a protocol bound in a
// Gaussian scenario — one point of the paper's Fig 3. It leases an
// Evaluator from the process-wide pool, so repeated calls hit the
// cached-template fast paths; callers with a hot loop of their own should
// hold a private Evaluator instead.
func OptimalSumRate(p Protocol, b Bound, s Scenario) (SumRateResult, error) {
	e := GetEvaluator()
	defer PutEvaluator(e)
	opt, err := e.WeightedRate(p, b, s, 1, 1)
	if err != nil {
		return SumRateResult{}, err
	}
	return SumRateResult{
		Protocol:  p,
		Kind:      b,
		Sum:       opt.Objective,
		Rates:     opt.Rates,
		Durations: append([]float64(nil), opt.Durations...),
	}, nil
}

// GaussianRegion computes a protocol bound's full rate region in a Gaussian
// scenario — one curve of the paper's Fig 4.
func GaussianRegion(p Protocol, b Bound, s Scenario) (region.Polygon, error) {
	e := GetEvaluator()
	defer PutEvaluator(e)
	return e.Region(p, b, s)
}

// EscapeWitness is an achievable HBC operating point lying outside both the
// MABC and TDBC outer bounds — the paper's headline "surprising" finding.
type EscapeWitness struct {
	Point region.Point
	// Margin is the minimum over {MABC, TDBC} outer bounds of how far the
	// point is from being contained, measured as the containment-test
	// tolerance at which the point would first be accepted. Larger is a
	// stronger escape.
	Margin float64
}

// HBCEscapePoints searches the HBC achievable region for points outside the
// union of the MABC and TDBC outer-bound regions at the given scenario. An
// empty result means no escape at this scenario (the paper's claim is "in
// some cases", not everywhere). Candidates come from a polygon sweep; each
// is then verified exactly by LP — it must be infeasible for both outer
// bounds — so finite polygon resolution cannot produce false witnesses.
func HBCEscapePoints(s Scenario) ([]EscapeWitness, error) {
	hbcInner, err := GaussianRegion(HBC, BoundInner, s)
	if err != nil {
		return nil, err
	}
	mabcOuter, err := GaussianRegion(MABC, BoundOuter, s)
	if err != nil {
		return nil, err
	}
	tdbcOuter, err := GaussianRegion(TDBC, BoundOuter, s)
	if err != nil {
		return nil, err
	}
	return HBCEscapeFromRegions(s, hbcInner, mabcOuter, tdbcOuter)
}

// HBCEscapeFromRegions runs the escape search over precomputed region
// polygons — the path for callers that already hold the three curves (e.g.
// the Fig 4 experiment, which computes them once through the sharded batch
// and reuses them here instead of re-sweeping). The polygons must all come
// from the same scenario s, which is still needed for the exact LP
// verification of each candidate.
func HBCEscapeFromRegions(s Scenario, hbcInner, mabcOuter, tdbcOuter region.Polygon) ([]EscapeWitness, error) {
	mabcSpec, err := CompileGaussian(MABC, BoundOuter, s)
	if err != nil {
		return nil, err
	}
	tdbcSpec, err := CompileGaussian(TDBC, BoundOuter, s)
	if err != nil {
		return nil, err
	}
	const tol = 1e-7
	raw := hbcInner.PointsOutside(tol, mabcOuter, tdbcOuter)
	out := make([]EscapeWitness, 0, len(raw))
	for _, p := range raw {
		rp := RatePair{Ra: p.Ra, Rb: p.Rb}
		inMABC, err := mabcSpec.Feasible(rp)
		if err != nil {
			return nil, err
		}
		inTDBC, err := tdbcSpec.Feasible(rp)
		if err != nil {
			return nil, err
		}
		if inMABC || inTDBC {
			continue // polygon-resolution artifact, not a real escape
		}
		out = append(out, EscapeWitness{Point: p, Margin: escapeMargin(p, mabcOuter, tdbcOuter)})
	}
	return out, nil
}

// escapeMargin estimates how far p sits outside both regions by growing the
// containment tolerance until one of them accepts the point.
func escapeMargin(p region.Point, regions ...region.Polygon) float64 {
	lo, hi := 0.0, 1.0
	contained := func(tol float64) bool {
		for _, r := range regions {
			if r.Contains(p, tol) {
				return true
			}
		}
		return false
	}
	if contained(lo) {
		return 0
	}
	for !contained(hi) && hi < 1e6 {
		hi *= 2
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if contained(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}
