package protocols

// refine_test.go — exactness of RefineRegion. Over seeded random scenarios
// (P from -10 to 30 dB, gains within ±15 dB, every protocol and bound) the
// refined polygon must be certified facet by facet by a fresh weighted-rate
// solve and by the independent compiled-spec LP, must contain the polygon
// of the fixed 181-direction sweep it replaced and every point of a dense
// 20k-direction sweep, and must stay within maxRegionSolves solves.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bicoop/internal/region"
)

// randomRegionScenario draws P from -10 to 30 dB and each gain within ±15 dB.
func randomRegionScenario(rng *rand.Rand) Scenario {
	return NewScenarioDB(-10+40*rng.Float64(), -15+30*rng.Float64(), -15+30*rng.Float64(), -15+30*rng.Float64())
}

// refineCounted refines one curve with the evaluator and reports the solve
// count.
func refineCounted(ev *Evaluator, p Protocol, b Bound, li LinkInfos) (region.Polygon, int, error) {
	solves := 0
	pg, err := RefineRegion(func(muA, muB float64) (region.Point, error) {
		solves++
		opt, err := ev.WeightedRateLinks(p, b, li, muA, muB)
		return region.Point{Ra: opt.Rates.Ra, Rb: opt.Rates.Rb}, err
	})
	return pg, solves, err
}

// sweptRegion is the fixed-direction support sweep RefineRegion replaced:
// angles directions across the first quadrant plus the two exact axis
// solves, hulled.
func sweptRegion(ev *Evaluator, p Protocol, b Bound, li LinkInfos, angles int) (region.Polygon, error) {
	swept := make([]region.Point, 0, angles)
	for i := 0; i < angles; i++ {
		muA, muB := RegionDirection(i, angles)
		opt, err := ev.WeightedRateLinks(p, b, li, muA, muB)
		if err != nil {
			return region.Polygon{}, err
		}
		swept = append(swept, region.Point{Ra: max(opt.Rates.Ra, 0), Rb: max(opt.Rates.Rb, 0)})
	}
	raMax, err := ev.WeightedRateLinks(p, b, li, 1, 0)
	if err != nil {
		return region.Polygon{}, err
	}
	rbMax, err := ev.WeightedRateLinks(p, b, li, 0, 1)
	if err != nil {
		return region.Polygon{}, err
	}
	return AssembleRegion(swept, raMax.Rates.Ra, rbMax.Rates.Rb), nil
}

// certTol is how far, relative to max(1, |n·p|), an optimum may lie beyond
// an edge of a refined polygon: 1e-9 from the refinement's own facet test,
// plus up to about 3e-9 from the hull that assembles the chain, which
// snaps coordinates within 1e-9 of an axis to it, merges points within
// 1e-9 of each other and drops vertices within 1e-9 of a chord.
const certTol = 4e-9

// certifyFacets solves along the unit outward normal of every polygon edge
// that faces the first quadrant and fails if the optimum lies beyond the
// edge by more than certTol. solve returns the optimal objective along
// (muA, muB).
func certifyFacets(pg region.Polygon, solve func(muA, muB float64) (float64, error)) error {
	v := pg.Vertices()
	for i := range v {
		a, b := v[i], v[(i+1)%len(v)]
		nA, nB := b.Rb-a.Rb, a.Ra-b.Ra // CCW order: outward is to the right
		h := math.Hypot(nA, nB)
		if nA < 0 || nB < 0 || h == 0 {
			continue // an axis edge, facing away from the rate quadrant
		}
		nA, nB = nA/h, nB/h
		got, err := solve(nA, nB)
		if err != nil {
			return err
		}
		edge := nA*a.Ra + nB*a.Rb
		if got > edge+certTol*max(1, math.Abs(edge)) {
			return fmt.Errorf("edge %v-%v: support %.17g along (%g, %g) beyond the edge's %.17g", a, b, got, nA, nB, edge)
		}
	}
	return nil
}

// TestRefineRegionExact checks every curve of 400 random scenarios: solves
// within the cap, every facet certified by the evaluator and by the
// compiled-spec LP, and the 181-direction sweep polygon inside the exact
// one.
func TestRefineRegionExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ev := NewEvaluator()
	most, missed := 0, 0
	for trial := 0; trial < 400; trial++ {
		s := randomRegionScenario(rng)
		li, err := LinkInfosFromScenario(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range Protocols() {
			for _, b := range allBounds {
				name := fmt.Sprintf("trial %d %v %v", trial, p, b)
				exact, solves, err := refineCounted(ev, p, b, li)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				most = max(most, solves)
				if solves > maxRegionSolves {
					t.Errorf("%s: %d solves, cap %d", name, solves, maxRegionSolves)
				}
				if err := certifyFacets(exact, func(muA, muB float64) (float64, error) {
					opt, err := ev.WeightedRateLinks(p, b, li, muA, muB)
					return muA*opt.Rates.Ra + muB*opt.Rates.Rb, err
				}); err != nil {
					t.Errorf("%s: evaluator: %v", name, err)
				}
				spec, err := CompileGaussian(p, b, s)
				if err != nil {
					t.Fatal(err)
				}
				if err := certifyFacets(exact, func(muA, muB float64) (float64, error) {
					opt, err := spec.MaxWeightedRate(muA, muB)
					return opt.Objective, err
				}); err != nil {
					t.Errorf("%s: compiled LP: %v", name, err)
				}
				swept, err := sweptRegion(ev, p, b, li, DefaultRegionAngles)
				if err != nil {
					t.Fatal(err)
				}
				if !exact.SubsetOf(swept, 1e-9) {
					missed++
				}
				if !swept.SubsetOf(exact, 1e-9) {
					t.Errorf("%s: 181-direction polygon %v not inside the exact %v", name, swept.Vertices(), exact.Vertices())
				}
			}
		}
	}
	t.Logf("at most %d solves per curve; the 181-direction sweep misses a vertex on %d curves", most, missed)
}

// TestRefineRegionDenseSweepInside solves 20,000 directions across the
// first quadrant for every curve of five random scenarios: every optimum
// must lie inside the exact polygon within 1e-9.
func TestRefineRegionDenseSweepInside(t *testing.T) {
	const dense = 20_000
	rng := rand.New(rand.NewSource(7))
	ev := NewEvaluator()
	for trial := 0; trial < 5; trial++ {
		li, err := LinkInfosFromScenario(randomRegionScenario(rng))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range Protocols() {
			for _, b := range allBounds {
				exact, _, err := refineCounted(ev, p, b, li)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < dense; i++ {
					muA, muB := RegionDirection(i, dense)
					opt, err := ev.WeightedRateLinks(p, b, li, muA, muB)
					if err != nil {
						t.Fatal(err)
					}
					if q := (region.Point{Ra: opt.Rates.Ra, Rb: opt.Rates.Rb}); !exact.Contains(q, 1e-9) {
						t.Fatalf("trial %d %v %v: direction %d optimum %v outside the exact polygon %v",
							trial, p, b, i, q, exact.Vertices())
					}
				}
			}
		}
	}
}

// TestRefineRegionRecoversFig4Vertex pins the vertex the 181-direction
// sweep misses on the Fig 4 TDBC outer bound at 10 dB: its normal cone is
// narrower than the sweep's angle step.
func TestRefineRegionRecoversFig4Vertex(t *testing.T) {
	ev := NewEvaluator()
	s := testScenario(10)
	exact, err := ev.Region(TDBC, BoundOuter, s)
	if err != nil {
		t.Fatal(err)
	}
	li, err := LinkInfosFromScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	swept, err := sweptRegion(ev, TDBC, BoundOuter, li, DefaultRegionAngles)
	if err != nil {
		t.Fatal(err)
	}
	want := region.Point{Ra: 1.98545, Rb: 1.06519}
	found := false
	for _, v := range exact.Vertices() {
		if math.Abs(v.Ra-want.Ra) < 1e-5 && math.Abs(v.Rb-want.Rb) < 1e-5 {
			found = true
		}
	}
	if !found {
		t.Errorf("exact vertices %v miss %v", exact.Vertices(), want)
	}
	if swept.Contains(want, 1e-6) {
		t.Errorf("the 181-direction sweep already contains %v; the pin no longer tests a missed vertex", want)
	}
	if exact.Area() <= swept.Area() {
		t.Errorf("exact area %.9g not above the sweep's %.9g", exact.Area(), swept.Area())
	}
}

// TestRefineRegionSolveCap feeds the unit disk's support oracle, which has
// no finite vertex set: refinement must stop at exactly maxRegionSolves
// solves with an error instead of looping.
func TestRefineRegionSolveCap(t *testing.T) {
	solves := 0
	_, err := RefineRegion(func(muA, muB float64) (region.Point, error) {
		solves++
		return region.Point{Ra: muA, Rb: muB}, nil
	})
	if err == nil {
		t.Fatal("refinement of a disk succeeded")
	}
	if solves != maxRegionSolves {
		t.Errorf("%d solves, want the cap %d", solves, maxRegionSolves)
	}
}

// TestRefineRegionSolveError pins that a solve error is returned as it is.
func TestRefineRegionSolveError(t *testing.T) {
	sentinel := errors.New("solve failed")
	for fail := 1; fail <= 3; fail++ {
		n := 0
		_, err := RefineRegion(func(muA, muB float64) (region.Point, error) {
			n++
			if n == fail {
				return region.Point{}, sentinel
			}
			return region.Point{Ra: 2 * muA, Rb: 3 * muB}, nil
		})
		if !errors.Is(err, sentinel) || n != fail {
			t.Errorf("error at solve %d: err = %v after %d solves", fail, err, n)
		}
	}
}

// FuzzRefineRegion refines the region of one fuzzed scenario, protocol and
// bound and certifies each facet with a fresh evaluator solve. proto and
// bound index Protocols() and {inner, outer}, modulo their lengths. The
// dB values are folded into ±40 dB (non-finite ones are skipped): far
// beyond that the weighted-rate LPs themselves break down (an HBC outer
// solve at P = -74 dB, Gab = 98 dB reports unbounded), which is the
// solver's failure, not the refinement's.
func FuzzRefineRegion(f *testing.F) {
	f.Add(10.0, -7.0, 0.0, 5.0, uint8(3), uint8(1)) // Fig 4 at 10 dB, TDBC outer
	f.Add(0.0, -7.0, 0.0, 5.0, uint8(4), uint8(0))  // Fig 4 at 0 dB, HBC inner
	f.Fuzz(func(t *testing.T, power, gab, gar, gbr float64, proto, bound uint8) {
		db := []float64{power, gab, gar, gbr}
		for i, x := range db {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Skip("non-finite scenario")
			}
			db[i] = math.Remainder(x, 80)
		}
		p := Protocols()[int(proto)%len(Protocols())]
		b := allBounds[int(bound)%len(allBounds)]
		li, err := LinkInfosFromScenario(NewScenarioDB(db[0], db[1], db[2], db[3]))
		if err != nil {
			t.Skip(err)
		}
		ev := NewEvaluator()
		exact, solves, err := refineCounted(ev, p, b, li)
		if err != nil {
			t.Fatalf("%v %v: %v", p, b, err)
		}
		if solves > maxRegionSolves {
			t.Fatalf("%v %v: %d solves, cap %d", p, b, solves, maxRegionSolves)
		}
		if err := certifyFacets(exact, func(muA, muB float64) (float64, error) {
			opt, err := ev.WeightedRateLinks(p, b, li, muA, muB)
			return muA*opt.Rates.Ra + muB*opt.Rates.Rb, err
		}); err != nil {
			t.Fatalf("%v %v: %v", p, b, err)
		}
	})
}
