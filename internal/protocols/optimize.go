package protocols

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"bicoop/internal/region"
	"bicoop/internal/simplex"
)

// Optimum is the result of a weighted-rate maximization over a compiled
// bound: the optimal operating point, its phase durations, and the achieved
// objective.
type Optimum struct {
	// Rates is the optimal (Ra, Rb).
	Rates RatePair
	// Durations are the optimal phase durations Δ (length Spec.Phases,
	// summing to one).
	Durations []float64
	// Objective is the achieved weighted rate μa·Ra + μb·Rb.
	Objective float64
}

// lp builds the LP for the spec: variables x = [Ra, Rb, Δ1..ΔL].
func (s Spec) lp(muA, muB float64) simplex.Problem {
	n := 2 + s.Phases
	c := make([]float64, n)
	c[0], c[1] = muA, muB
	aub := make([][]float64, 0, len(s.Cons))
	bub := make([]float64, 0, len(s.Cons))
	for _, con := range s.Cons {
		row := make([]float64, n)
		row[0], row[1] = con.CoefRa, con.CoefRb
		for l := 0; l < s.Phases && l < len(con.PhaseCap); l++ {
			row[2+l] = -con.PhaseCap[l]
		}
		aub = append(aub, row)
		bub = append(bub, 0)
	}
	eq := make([]float64, n)
	for l := 0; l < s.Phases; l++ {
		eq[2+l] = 1
	}
	return simplex.Problem{
		C:   c,
		AUb: aub,
		BUb: bub,
		AEq: [][]float64{eq},
		BEq: []float64{1},
	}
}

// MaxWeightedRate maximizes μa·Ra + μb·Rb over the bound, jointly optimizing
// the phase durations (the paper's LP of Section IV).
func (s Spec) MaxWeightedRate(muA, muB float64) (Optimum, error) {
	if muA < 0 || muB < 0 {
		return Optimum{}, fmt.Errorf("protocols: negative weights (%g, %g)", muA, muB)
	}
	sol, err := s.lp(muA, muB).Solve()
	if err != nil {
		return Optimum{}, fmt.Errorf("protocols: %v %v weighted-rate LP: %w", s.Protocol, s.Kind, err)
	}
	return Optimum{
		Rates:     RatePair{Ra: sol.X[0], Rb: sol.X[1]},
		Durations: sol.X[2 : 2+s.Phases],
		Objective: sol.Objective,
	}, nil
}

// MaxSumRate maximizes Ra + Rb (the quantity plotted in Fig 3).
func (s Spec) MaxSumRate() (Optimum, error) {
	return s.MaxWeightedRate(1, 1)
}

// Feasible reports whether the rate pair is within the bound for some choice
// of phase durations.
func (s Spec) Feasible(r RatePair) (bool, error) {
	if r.Ra < 0 || r.Rb < 0 {
		return false, nil
	}
	// Fix Ra, Rb via equality rows and ask phase-1 for feasibility.
	p := s.lp(0, 0)
	fixRa := make([]float64, 2+s.Phases)
	fixRa[0] = 1
	fixRb := make([]float64, 2+s.Phases)
	fixRb[1] = 1
	p.AEq = append(p.AEq, fixRa, fixRb)
	p.BEq = append(p.BEq, r.Ra, r.Rb)
	_, err := p.Solve()
	if err == nil {
		return true, nil
	}
	if errors.Is(err, simplex.ErrInfeasible) {
		return false, nil
	}
	return false, fmt.Errorf("protocols: feasibility LP: %w", err)
}

// DurationsFor returns phase durations under which the rate pair is within
// the bound, or ErrBadDurations if the pair is infeasible at every duration
// split. Among feasible splits it returns the one maximizing the uniform
// rate margin t such that ((1+t)·Ra, (1+t)·Rb) stays feasible, so simulators
// operate with slack away from the boundary when slack exists.
func (s Spec) DurationsFor(r RatePair) ([]float64, error) {
	if r.Ra < 0 || r.Rb < 0 {
		return nil, fmt.Errorf("%w: negative rates %+v", ErrBadDurations, r)
	}
	// Variables: [t, Δ1..ΔL]; maximize t subject to
	// (1+t)·(CoefRa·Ra + CoefRb·Rb) ≤ Σ PhaseCap·Δ for every constraint.
	n := 1 + s.Phases
	c := make([]float64, n)
	c[0] = 1
	var aub [][]float64
	var bub []float64
	for _, con := range s.Cons {
		base := con.CoefRa*r.Ra + con.CoefRb*r.Rb
		row := make([]float64, n)
		row[0] = base
		for l := 0; l < s.Phases && l < len(con.PhaseCap); l++ {
			row[1+l] = -con.PhaseCap[l]
		}
		aub = append(aub, row)
		bub = append(bub, -base)
	}
	// Cap t so the LP stays bounded even for the all-zero rate pair.
	tCap := make([]float64, n)
	tCap[0] = 1
	aub = append(aub, tCap)
	bub = append(bub, 1e6)
	eq := make([]float64, n)
	for l := 0; l < s.Phases; l++ {
		eq[1+l] = 1
	}
	sol, err := (simplex.Problem{C: c, AUb: aub, BUb: bub, AEq: [][]float64{eq}, BEq: []float64{1}}).Solve()
	if err != nil {
		if errors.Is(err, simplex.ErrInfeasible) {
			return nil, fmt.Errorf("%w: rate pair %+v infeasible for %v %v", ErrBadDurations, r, s.Protocol, s.Kind)
		}
		return nil, fmt.Errorf("protocols: durations LP: %w", err)
	}
	if sol.X[0] < 0 {
		return nil, fmt.Errorf("%w: rate pair %+v infeasible for %v %v", ErrBadDurations, r, s.Protocol, s.Kind)
	}
	d := make([]float64, s.Phases)
	copy(d, sol.X[1:1+s.Phases])
	return d, nil
}

// DefaultRegionAngles is the default of the deprecated Angles fields, which
// region admission still uses to size its direction cap.
const DefaultRegionAngles = 181

// RegionDirection returns the i-th support direction (muA, muB) of an
// angles-point sweep across the first quadrant: theta = (pi/2)·i/(angles-1).
// The region paths do not sweep; tests and benchmarks use it to replay a
// fixed-direction sweep.
func RegionDirection(i, angles int) (muA, muB float64) {
	theta := math.Pi / 2 * float64(i) / float64(angles-1)
	return math.Cos(theta), math.Sin(theta)
}

// AssembleRegion builds the region polygon from the optimal vertices of a
// set of support solves plus the exact axis maxima: the origin is
// prepended, the per-user maxima are projected onto the axes to keep the
// hull anchored, and the convex hull is taken.
func AssembleRegion(swept []region.Point, raMax, rbMax float64) region.Polygon {
	pts := make([]region.Point, 0, len(swept)+3)
	pts = append(pts, region.Point{Ra: 0, Rb: 0})
	pts = append(pts, swept...)
	pts = append(pts,
		region.Point{Ra: raMax, Rb: 0},
		region.Point{Ra: 0, Rb: rbMax},
	)
	return region.ConvexHull(pts)
}

// maxRegionSolves caps the weighted-rate solves of one RefineRegion call.
// An exact Theorem 2-6 region has at most about 8 vertices and needs at
// most 2V−1 solves; the cap only turns a numerically pathological curve
// into an error instead of a long loop.
const maxRegionSolves = 64

// RefineRegion computes a bound's exact rate region from its weighted-rate
// oracle: solve returns an optimal (Ra, Rb) of muA·Ra + muB·Rb for a
// non-negative unit direction. The region is the projection of a polytope
// in (Ra, Rb, Δ), so it is a convex polygon, found by edge refinement:
//
//   - solve along (1,0) and (0,1), the ends of the chain of known vertices;
//   - for each adjacent chain pair p1, p2, solve along the edge's outward
//     unit normal n ∝ (p2.Rb−p1.Rb, p1.Ra−p2.Ra);
//   - if the optimum q has n·q ≤ n·p1 + 1e-9·max(1, |n·p1|) the edge is a
//     facet, otherwise q is a new vertex between p1 and p2 and both halves
//     are refined.
//
// The solve sequence depends only on the solve results, so callers that
// answer every direction identically (a cold evaluator solve, a cache hit
// of one) get bit-identical polygons. More than maxRegionSolves solves is
// an error; solve's own errors are returned as they are.
func RefineRegion(solve func(muA, muB float64) (region.Point, error)) (region.Polygon, error) {
	pa, err := solve(1, 0)
	if err != nil {
		return region.Polygon{}, err
	}
	pb, err := solve(0, 1)
	if err != nil {
		return region.Polygon{}, err
	}
	// Rates are non-negative by construction; clear solver jitter.
	clamp := func(p region.Point) region.Point {
		return region.Point{Ra: max(p.Ra, 0), Rb: max(p.Rb, 0)}
	}
	chain := []region.Point{clamp(pa), clamp(pb)}
	solves := 2
	for i := 0; i+1 < len(chain); {
		p1, p2 := chain[i], chain[i+1]
		// Along the chain Ra falls and Rb rises, so the normal lies in the
		// first quadrant; a negative component is solver jitter.
		nA, nB := max(p2.Rb-p1.Rb, 0), max(p1.Ra-p2.Ra, 0)
		h := math.Hypot(nA, nB)
		if h <= 1e-12 {
			i++ // the same vertex twice: no edge to refine
			continue
		}
		nA, nB = nA/h, nB/h
		if solves == maxRegionSolves {
			return region.Polygon{}, fmt.Errorf("protocols: region refinement needs more than %d solves", maxRegionSolves)
		}
		q, err := solve(nA, nB)
		if err != nil {
			return region.Polygon{}, err
		}
		solves++
		q = clamp(q)
		edge := nA*p1.Ra + nB*p1.Rb
		if nA*q.Ra+nB*q.Rb <= edge+1e-9*max(1, math.Abs(edge)) {
			i++ // a facet: advance to the next edge
			continue
		}
		chain = slices.Insert(chain, i+1, q)
	}
	return AssembleRegion(chain, pa.Ra, pb.Rb), nil
}

// FixedDurationRegion computes the rate region when the phase durations are
// pinned rather than optimized: each constraint's right-hand side becomes a
// constant and the region is a direct half-plane intersection. This is used
// by the Δ-ablation experiment and by cross-validation tests (the optimized
// region must contain every fixed-Δ region and equal their union's hull).
func (s Spec) FixedDurationRegion(durations []float64) (region.Polygon, error) {
	if len(durations) != s.Phases {
		return region.Polygon{}, fmt.Errorf("%w: %d durations for %d phases", ErrBadDurations, len(durations), s.Phases)
	}
	var sum float64
	for _, d := range durations {
		if d < -1e-12 {
			return region.Polygon{}, fmt.Errorf("%w: negative duration %g", ErrBadDurations, d)
		}
		sum += d
	}
	if math.Abs(sum-1) > 1e-9 {
		return region.Polygon{}, fmt.Errorf("%w: durations sum to %g", ErrBadDurations, sum)
	}
	hs := make([]region.HalfPlane, 0, len(s.Cons))
	for _, con := range s.Cons {
		hs = append(hs, region.HalfPlane{
			A: con.CoefRa,
			B: con.CoefRb,
			C: con.rhsAt(durations),
		})
	}
	pg, err := region.FromHalfPlanes(hs, 0)
	if err != nil {
		return region.Polygon{}, fmt.Errorf("protocols: fixed-duration region: %w", err)
	}
	return pg, nil
}

// EqualDurations returns the uniform duration vector for the spec's phase
// count (the no-optimization baseline of the Δ ablation).
func (s Spec) EqualDurations() []float64 {
	d := make([]float64, s.Phases)
	for i := range d {
		d[i] = 1 / float64(s.Phases)
	}
	return d
}

// SumRateAt evaluates the best sum rate attainable at fixed durations (the
// LP restricted to the rate variables, solved in closed form by walking the
// constraint set: the restriction is a 2-variable LP, handled by the region
// machinery for robustness).
func (s Spec) SumRateAt(durations []float64) (float64, error) {
	pg, err := s.FixedDurationRegion(durations)
	if err != nil {
		return 0, err
	}
	return pg.MaxSumRate(), nil
}
