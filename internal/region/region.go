// Package region represents two-dimensional rate regions — the sets of
// achievable (Ra, Rb) pairs of the paper's Theorems 2-6 — as convex polygons
// in the non-negative quadrant. It provides construction from half-plane
// constraints, convex hulls, containment tests, Pareto frontiers, and
// comparison utilities used to verify the paper's region-inclusion claims
// (e.g., "some achievable HBC rate pairs are outside the outer bounds of the
// MABC and TDBC protocols").
package region

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"bicoop/internal/xmath"
)

// Point is a rate pair (Ra, Rb) in bits per channel use.
type Point struct {
	Ra, Rb float64
}

// HalfPlane is the constraint A·Ra + B·Rb ≤ C.
type HalfPlane struct {
	A, B, C float64
}

// Eval returns A·Ra + B·Rb - C; non-positive values satisfy the constraint.
func (h HalfPlane) Eval(p Point) float64 {
	return h.A*p.Ra + h.B*p.Rb - h.C
}

// ErrEmptyRegion is returned when an intersection of half-planes is empty.
var ErrEmptyRegion = errors.New("region: empty region")

// Polygon is a convex polygon with vertices in counter-clockwise order.
// A nil/empty polygon is the empty region. Rate regions always include the
// origin and the axes segments down from any achievable point (rates can be
// reduced), so constructors clip to the non-negative quadrant.
type Polygon struct {
	v []Point
}

// Vertices returns a copy of the polygon's vertex list.
func (pg Polygon) Vertices() []Point {
	out := make([]Point, len(pg.v))
	copy(out, pg.v)
	return out
}

// IsEmpty reports whether the polygon has no area and no vertices.
func (pg Polygon) IsEmpty() bool { return len(pg.v) == 0 }

// eps is the geometric tolerance for clipping and dedup.
const eps = 1e-9

// FromHalfPlanes intersects the given half-planes with the non-negative
// quadrant and a generous bounding box, returning the resulting convex
// polygon. The box edge must exceed any achievable rate in this module
// (rates are at most ~C(P·G) ≈ tens of bits).
func FromHalfPlanes(hs []HalfPlane, boxEdge float64) (Polygon, error) {
	if boxEdge <= 0 {
		boxEdge = 1e6
	}
	// Start from the box [0, boxEdge]^2 as a CCW polygon.
	poly := []Point{{0, 0}, {boxEdge, 0}, {boxEdge, boxEdge}, {0, boxEdge}}
	for _, h := range hs {
		poly = clip(poly, h)
		if len(poly) == 0 {
			return Polygon{}, fmt.Errorf("%w: after constraint %+v", ErrEmptyRegion, h)
		}
	}
	return Polygon{v: dedupe(poly)}, nil
}

// clip applies Sutherland-Hodgman clipping of a CCW polygon against the
// feasible side of h.
func clip(poly []Point, h HalfPlane) []Point {
	if len(poly) == 0 {
		return nil
	}
	out := make([]Point, 0, len(poly)+2)
	for i := range poly {
		cur := poly[i]
		prev := poly[(i+len(poly)-1)%len(poly)]
		curIn := h.Eval(cur) <= eps
		prevIn := h.Eval(prev) <= eps
		switch {
		case curIn && prevIn:
			out = append(out, cur)
		case curIn && !prevIn:
			out = append(out, intersect(prev, cur, h), cur)
		case !curIn && prevIn:
			out = append(out, intersect(prev, cur, h))
		}
	}
	return out
}

// intersect returns the point where segment pq crosses the boundary of h.
func intersect(p, q Point, h HalfPlane) Point {
	fp, fq := h.Eval(p), h.Eval(q)
	t := fp / (fp - fq)
	if math.IsNaN(t) || math.IsInf(t, 0) {
		t = 0.5
	}
	return Point{
		Ra: p.Ra + t*(q.Ra-p.Ra),
		Rb: p.Rb + t*(q.Rb-p.Rb),
	}
}

func dedupe(poly []Point) []Point {
	if len(poly) == 0 {
		return nil
	}
	out := make([]Point, 0, len(poly))
	for _, p := range poly {
		if len(out) > 0 && samePoint(out[len(out)-1], p) {
			continue
		}
		out = append(out, p)
	}
	for len(out) > 1 && samePoint(out[0], out[len(out)-1]) {
		out = out[:len(out)-1]
	}
	return out
}

func samePoint(a, b Point) bool {
	return math.Abs(a.Ra-b.Ra) <= eps && math.Abs(a.Rb-b.Rb) <= eps
}

// ConvexHull returns the convex hull of the given points (Andrew's monotone
// chain), as a CCW polygon. A point within 1e-9 of the segment joining its
// hull neighbours is dropped as collinear. Degenerate inputs (all
// collinear) yield the extreme segment or point.
func ConvexHull(pts []Point) Polygon {
	if len(pts) == 0 {
		return Polygon{}
	}
	ps := make([]Point, len(pts))
	copy(ps, pts)
	// Snap near-zero coordinates to exactly zero: optimizer outputs carry
	// O(1e-16) jitter, and a point like (-1e-16, y) sorts ahead of (0, 0),
	// separating it from its true duplicate (0, y) and corrupting the chain.
	for i := range ps {
		if math.Abs(ps[i].Ra) < eps {
			ps[i].Ra = 0
		}
		if math.Abs(ps[i].Rb) < eps {
			ps[i].Rb = 0
		}
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Ra != ps[j].Ra {
			return ps[i].Ra < ps[j].Ra
		}
		return ps[i].Rb < ps[j].Rb
	})
	// Remove duplicates.
	uniq := ps[:1]
	for _, p := range ps[1:] {
		if !samePoint(uniq[len(uniq)-1], p) {
			uniq = append(uniq, p)
		}
	}
	ps = uniq
	if len(ps) == 1 {
		return Polygon{v: ps}
	}
	// notLeft reports whether a lies right of, or within eps of, the line
	// from o to b. The tolerance is a distance, not an area, so small
	// regions (rates of 1e-2 bits and below) keep their vertices.
	notLeft := func(o, a, b Point) bool {
		cross := (a.Ra-o.Ra)*(b.Rb-o.Rb) - (a.Rb-o.Rb)*(b.Ra-o.Ra)
		return cross <= eps*math.Hypot(b.Ra-o.Ra, b.Rb-o.Rb)
	}
	var lower, upper []Point
	for _, p := range ps {
		for len(lower) >= 2 && notLeft(lower[len(lower)-2], lower[len(lower)-1], p) {
			lower = lower[:len(lower)-1]
		}
		lower = append(lower, p)
	}
	for i := len(ps) - 1; i >= 0; i-- {
		p := ps[i]
		for len(upper) >= 2 && notLeft(upper[len(upper)-2], upper[len(upper)-1], p) {
			upper = upper[:len(upper)-1]
		}
		upper = append(upper, p)
	}
	hull := append(lower[:len(lower)-1], upper[:len(upper)-1]...)
	return Polygon{v: dedupe(hull)}
}

// Contains reports whether p lies in the polygon (within tol; tol <= 0 uses
// the package default).
func (pg Polygon) Contains(p Point, tol float64) bool {
	if tol <= 0 {
		tol = eps
	}
	n := len(pg.v)
	if n == 0 {
		return false
	}
	if n == 1 {
		return math.Abs(p.Ra-pg.v[0].Ra) <= tol && math.Abs(p.Rb-pg.v[0].Rb) <= tol
	}
	if n == 2 {
		// Degenerate segment: distance to segment within tol.
		return distToSegment(p, pg.v[0], pg.v[1]) <= tol
	}
	for i := 0; i < n; i++ {
		a, b := pg.v[i], pg.v[(i+1)%n]
		// CCW: interior is to the left of each edge.
		crossV := (b.Ra-a.Ra)*(p.Rb-a.Rb) - (b.Rb-a.Rb)*(p.Ra-a.Ra)
		// Scale tolerance by edge length so long edges are not stricter.
		length := math.Hypot(b.Ra-a.Ra, b.Rb-a.Rb)
		if crossV < -tol*math.Max(length, 1) {
			return false
		}
	}
	return true
}

func distToSegment(p, a, b Point) float64 {
	dx, dy := b.Ra-a.Ra, b.Rb-a.Rb
	l2 := dx*dx + dy*dy
	if l2 == 0 {
		return math.Hypot(p.Ra-a.Ra, p.Rb-a.Rb)
	}
	t := ((p.Ra-a.Ra)*dx + (p.Rb-a.Rb)*dy) / l2
	t = xmath.Clamp(t, 0, 1)
	return math.Hypot(p.Ra-(a.Ra+t*dx), p.Rb-(a.Rb+t*dy))
}

// Area returns the polygon's area by the shoelace formula.
func (pg Polygon) Area() float64 {
	n := len(pg.v)
	if n < 3 {
		return 0
	}
	var s float64
	for i := 0; i < n; i++ {
		a, b := pg.v[i], pg.v[(i+1)%n]
		s += a.Ra*b.Rb - b.Ra*a.Rb
	}
	return math.Abs(s) / 2
}

// Support returns the support value max{ u·Ra + v·Rb : (Ra,Rb) in region }
// and an attaining vertex.
func (pg Polygon) Support(u, v float64) (float64, Point) {
	best := math.Inf(-1)
	var arg Point
	for _, p := range pg.v {
		if val := u*p.Ra + v*p.Rb; val > best {
			best, arg = val, p
		}
	}
	return best, arg
}

// MaxSumRate returns max Ra+Rb over the region, 0 for the empty region.
func (pg Polygon) MaxSumRate() float64 {
	if pg.IsEmpty() {
		return 0
	}
	s, _ := pg.Support(1, 1)
	return math.Max(s, 0)
}

// SubsetOf reports whether every vertex of pg lies inside other (within tol).
// For convex polygons this is equivalent to region inclusion.
//
//bicoop:allow deadexport — the region and protocols tests check bound inclusions
func (pg Polygon) SubsetOf(other Polygon, tol float64) bool {
	if pg.IsEmpty() {
		return true
	}
	if other.IsEmpty() {
		return false
	}
	for _, p := range pg.v {
		if !other.Contains(p, tol) {
			return false
		}
	}
	return true
}

// ParetoFrontier returns the polygon's Pareto-efficient boundary points
// (vertices not dominated by any other vertex), sorted by increasing Ra.
func (pg Polygon) ParetoFrontier() []Point {
	var out []Point
	for _, p := range pg.v {
		dominated := false
		for _, q := range pg.v {
			if q.Ra >= p.Ra+eps && q.Rb >= p.Rb-eps || q.Ra >= p.Ra-eps && q.Rb >= p.Rb+eps {
				if q.Ra >= p.Ra && q.Rb >= p.Rb && !samePoint(p, q) {
					dominated = true
					break
				}
			}
		}
		if !dominated && (p.Ra > eps || p.Rb > eps) {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ra < out[j].Ra })
	return out
}

// RbAt returns the maximum Rb such that (ra, Rb) is in the region, or
// (0, false) if ra exceeds the region's Ra range.
func (pg Polygon) RbAt(ra float64) (float64, bool) {
	if pg.IsEmpty() {
		return 0, false
	}
	maxRa, _ := pg.Support(1, 0)
	if ra > maxRa+eps {
		return 0, false
	}
	best := math.Inf(-1)
	n := len(pg.v)
	found := false
	for i := 0; i < n; i++ {
		a, b := pg.v[i], pg.v[(i+1)%n]
		lo, hi := a, b
		if lo.Ra > hi.Ra {
			lo, hi = hi, lo
		}
		if ra < lo.Ra-eps || ra > hi.Ra+eps {
			continue
		}
		var rb float64
		if math.Abs(hi.Ra-lo.Ra) <= eps {
			rb = math.Max(lo.Rb, hi.Rb)
		} else {
			t := (ra - lo.Ra) / (hi.Ra - lo.Ra)
			rb = lo.Rb + t*(hi.Rb-lo.Rb)
		}
		if rb > best {
			best = rb
			found = true
		}
	}
	if !found {
		return 0, false
	}
	return math.Max(best, 0), true
}

// Swap returns the polygon reflected across the Ra = Rb diagonal (the a<->b
// role swap used in symmetry tests).
//
//bicoop:allow deadexport — the region and protocols tests check a<->b symmetry
func (pg Polygon) Swap() Polygon {
	pts := make([]Point, len(pg.v))
	for i, p := range pg.v {
		pts[i] = Point{Ra: p.Rb, Rb: p.Ra}
	}
	return ConvexHull(pts)
}

// PointsOutside returns boundary points of pg that are not contained in any
// of the others (within tol): witnesses that pg escapes the union of the
// others. Both vertices and sampled points along each edge are tested, since
// an escape witness can lie strictly between two vertices (this is exactly
// how the paper's "HBC points outside both outer bounds" claim manifests).
func (pg Polygon) PointsOutside(tol float64, others ...Polygon) []Point {
	const edgeSamples = 32
	n := len(pg.v)
	var out []Point
	seen := make(map[[2]float64]bool, n*edgeSamples)
	test := func(p Point) {
		key := [2]float64{math.Round(p.Ra / eps), math.Round(p.Rb / eps)}
		if seen[key] {
			return
		}
		seen[key] = true
		for _, o := range others {
			if o.Contains(p, tol) {
				return
			}
		}
		out = append(out, p)
	}
	for i := 0; i < n; i++ {
		a := pg.v[i]
		test(a)
		if n < 2 {
			continue
		}
		b := pg.v[(i+1)%n]
		for k := 1; k < edgeSamples; k++ {
			t := float64(k) / edgeSamples
			test(Point{Ra: a.Ra + t*(b.Ra-a.Ra), Rb: a.Rb + t*(b.Rb-a.Rb)})
		}
	}
	return out
}
