package protocols

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"bicoop/internal/xmath"
)

// allBounds lists both bound kinds for table-driven sweeps.
var allBounds = []Bound{BoundInner, BoundOuter}

// TestTemplatesDerived pins all ten templates: each derives, takes the
// closed form exactly when it has at most three phases, and needs the kink
// lines listed (zero for the simplex ones), far inside maxKinkLines.
func TestTemplatesDerived(t *testing.T) {
	wantFast := map[Protocol]bool{
		DT: true, MABC: true, TDBC: true, // ≤ 3 phases: closed form
		Naive4: false, HBC: false, // 4 phases: simplex
	}
	wantKinks := map[Protocol][2]int{DT: {1, 1}, MABC: {10, 10}, TDBC: {6, 10}}
	for _, p := range Protocols() {
		for bi, b := range allBounds {
			tpl, err := templateFor(p, b)
			if err != nil {
				t.Fatalf("%v %v: %v", p, b, err)
			}
			if got, want := tpl.kinkLines(), wantKinks[p][bi]; got != want {
				t.Errorf("%v %v: %d kink lines, want %d", p, b, got, want)
			}
			if tpl.fast != wantFast[p] {
				t.Errorf("%v %v: fast = %v, want %v", p, b, tpl.fast, wantFast[p])
			}
			if tpl.phases != p.Phases() {
				t.Errorf("%v %v: phases = %d, want %d", p, b, tpl.phases, p.Phases())
			}
			if len(tpl.aIdx) == 0 || len(tpl.bIdx) == 0 {
				t.Errorf("%v %v: missing per-rate constraints (a=%d b=%d)", p, b, len(tpl.aIdx), len(tpl.bIdx))
			}
		}
	}
	if _, err := templateFor(Protocol(42), BoundInner); !errors.Is(err, ErrUnknownProtocol) {
		t.Errorf("unknown protocol: err = %v, want ErrUnknownProtocol", err)
	}
	if _, err := templateFor(MABC, Bound(42)); !errors.Is(err, ErrUnknownBound) {
		t.Errorf("unknown bound: err = %v, want ErrUnknownBound", err)
	}
}

// TestTemplateCapsMatchCompile verifies that rewriting a template's
// capacities from LinkInfos reproduces exactly the constraints Compile
// builds, so the template layer cannot drift from the theorem transcription.
func TestTemplateCapsMatchCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := NewEvaluator()
	for trial := 0; trial < 20; trial++ {
		s := randomScenario(rng)
		li, err := LinkInfosFromScenario(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range Protocols() {
			for _, b := range allBounds {
				spec, err := Compile(p, b, li)
				if err != nil {
					t.Fatal(err)
				}
				tpl, err := templateFor(p, b)
				if err != nil {
					t.Fatal(err)
				}
				e.loadCaps(tpl, li)
				if len(tpl.cons) != len(spec.Cons) {
					t.Fatalf("%v %v: %d template cons vs %d compiled", p, b, len(tpl.cons), len(spec.Cons))
				}
				for ci, con := range spec.Cons {
					ct := tpl.cons[ci]
					if ct.coefRa != con.CoefRa || ct.coefRb != con.CoefRb {
						t.Fatalf("%v %v con %d: coef mismatch", p, b, ci)
					}
					for l := 0; l < spec.Phases; l++ {
						want := 0.0
						if l < len(con.PhaseCap) {
							want = con.PhaseCap[l]
						}
						if e.caps[ci][l] != want {
							t.Fatalf("%v %v con %d phase %d: cap %g, want %g (%s)",
								p, b, ci, l, e.caps[ci][l], want, con.Label)
						}
					}
				}
			}
		}
	}
}

func randomScenario(rng *rand.Rand) Scenario {
	pdb := -10 + 30*rng.Float64()
	gab := -12 + 10*rng.Float64()
	gar := gab + 18*rng.Float64()
	gbr := gab + 18*rng.Float64()
	return NewScenarioDB(pdb, gab, gar, gbr)
}

// randomLinkInfos draws unconstrained non-negative terms — points the
// Gaussian model cannot reach — to stress the fast paths beyond the
// physically consistent region.
func randomLinkInfos(rng *rand.Rand) LinkInfos {
	u := func() float64 { return 4 * rng.Float64() }
	return LinkInfos{
		AtoR: u(), BtoR: u(), AtoB: u(), BtoA: u(), RtoA: u(), RtoB: u(),
		MACAGivenB: u(), MACBGivenA: u(), MACSum: u(), AtoRB: u(), BtoRA: u(),
	}
}

// TestEvaluatorMatchesSimplex is the fast-path equivalence property test:
// across randomized scenarios, synthetic link informations, protocols,
// bounds and objective weights, the Evaluator and the generic two-phase
// simplex must agree on the optimal objective to 1e-9, and the Evaluator's
// operating point must be primal-feasible and consistent with its objective.
func TestEvaluatorMatchesSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := NewEvaluator()
	weights := [][2]float64{{1, 1}, {1, 0}, {0, 1}, {0.3, 0.7}, {2, 0.5}}
	checked := 0
	for trial := 0; trial < 60; trial++ {
		var li LinkInfos
		if trial%3 == 0 {
			li = randomLinkInfos(rng)
		} else {
			var err error
			li, err = LinkInfosFromScenario(randomScenario(rng))
			if err != nil {
				t.Fatal(err)
			}
		}
		w := weights[trial%len(weights)]
		muA, muB := w[0], w[1]
		if trial%7 == 0 {
			muA, muB = rng.Float64(), rng.Float64()
		}
		for _, p := range Protocols() {
			for _, b := range allBounds {
				spec, err := Compile(p, b, li)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := spec.MaxWeightedRate(muA, muB)
				if err != nil {
					t.Fatalf("%v %v reference LP: %v", p, b, err)
				}
				got, err := e.WeightedRateLinks(p, b, li, muA, muB)
				if err != nil {
					t.Fatalf("%v %v evaluator: %v", p, b, err)
				}
				tol := 1e-9 * (1 + math.Abs(ref.Objective))
				if math.Abs(got.Objective-ref.Objective) > tol {
					t.Errorf("%v %v mu=(%g,%g): evaluator %.15g vs simplex %.15g (diff %g)",
						p, b, muA, muB, got.Objective, ref.Objective, got.Objective-ref.Objective)
				}
				checkPrimal(t, spec, got, muA, muB)
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no cases checked")
	}
}

// checkPrimal verifies an Optimum is a consistent feasible point of the spec.
func checkPrimal(t *testing.T, spec Spec, opt Optimum, muA, muB float64) {
	t.Helper()
	const tol = 1e-9
	if len(opt.Durations) != spec.Phases {
		t.Fatalf("%v %v: %d durations, want %d", spec.Protocol, spec.Kind, len(opt.Durations), spec.Phases)
	}
	sum := 0.0
	for _, d := range opt.Durations {
		if d < -tol {
			t.Errorf("%v %v: negative duration %g", spec.Protocol, spec.Kind, d)
		}
		sum += d
	}
	if math.Abs(sum-1) > 1e-8 {
		t.Errorf("%v %v: durations sum to %.12g", spec.Protocol, spec.Kind, sum)
	}
	if opt.Rates.Ra < -tol || opt.Rates.Rb < -tol {
		t.Errorf("%v %v: negative rates %+v", spec.Protocol, spec.Kind, opt.Rates)
	}
	if obj := muA*opt.Rates.Ra + muB*opt.Rates.Rb; math.Abs(obj-opt.Objective) > 1e-8*(1+math.Abs(obj)) {
		t.Errorf("%v %v: objective %g inconsistent with rates %+v", spec.Protocol, spec.Kind, opt.Objective, opt.Rates)
	}
	for _, con := range spec.Cons {
		lhs := con.CoefRa*opt.Rates.Ra + con.CoefRb*opt.Rates.Rb
		rhs := 0.0
		for l, d := range opt.Durations {
			if l < len(con.PhaseCap) {
				rhs += con.PhaseCap[l] * d
			}
		}
		if lhs > rhs+1e-8*(1+rhs) {
			t.Errorf("%v %v: constraint %q violated: %g > %g", spec.Protocol, spec.Kind, con.Label, lhs, rhs)
		}
	}
}

// TestEvaluatorFeasibleMatchesSpec cross-checks the closed-form feasibility
// margin against the LP phase-1 probe on points placed strictly inside and
// strictly outside the bound.
func TestEvaluatorFeasibleMatchesSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	e := NewEvaluator()
	scales := []float64{0.25, 0.8, 0.97, 1.03, 1.4, 3}
	for trial := 0; trial < 25; trial++ {
		li, err := LinkInfosFromScenario(randomScenario(rng))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range Protocols() {
			for _, b := range allBounds {
				spec, err := Compile(p, b, li)
				if err != nil {
					t.Fatal(err)
				}
				opt, err := spec.MaxSumRate()
				if err != nil {
					t.Fatal(err)
				}
				share := 0.2 + 0.6*rng.Float64()
				for _, sc := range scales {
					target := RatePair{
						Ra: sc * share * opt.Objective,
						Rb: sc * (1 - share) * opt.Objective,
					}
					want, err := spec.Feasible(target)
					if err != nil {
						t.Fatal(err)
					}
					got, err := e.FeasibleLinks(p, b, li, target)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%v %v target %+v (scale %g): evaluator %v vs LP %v",
							p, b, target, sc, got, want)
					}
				}
			}
		}
	}
}

// TestEvaluatorMatchesPackageAPI pins the pooled package-level entry point to
// the evaluator it wraps.
func TestEvaluatorMatchesPackageAPI(t *testing.T) {
	s := NewScenarioDB(10, -7, 0, 5)
	e := NewEvaluator()
	for _, p := range Protocols() {
		res, err := OptimalSumRate(p, BoundInner, s)
		if err != nil {
			t.Fatal(err)
		}
		v, err := e.SumRate(p, BoundInner, s)
		if err != nil {
			t.Fatal(err)
		}
		if !xmath.ApproxEqual(res.Sum, v, 1e-12) {
			t.Errorf("%v: OptimalSumRate %g vs Evaluator.SumRate %g", p, res.Sum, v)
		}
	}
}

func TestEvaluatorRegionMatchesSpecRegion(t *testing.T) {
	s := NewScenarioDB(10, -7, 0, 5)
	e := NewEvaluator()
	for _, p := range Protocols() {
		for _, b := range allBounds {
			spec, err := CompileGaussian(p, b, s)
			if err != nil {
				t.Fatal(err)
			}
			want, err := spec.Region()
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Region(p, b, s)
			if err != nil {
				t.Fatal(err)
			}
			if !xmath.ApproxEqual(got.Area(), want.Area(), 1e-9*(1+want.Area())) {
				t.Errorf("%v %v: region area %g vs %g", p, b, got.Area(), want.Area())
			}
		}
	}
}

// TestEvaluatorSwapSymmetry: swapping the terminals and the weights must not
// change the optimal objective (the regions are mirror images).
func TestEvaluatorSwapSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := NewEvaluator()
	for trial := 0; trial < 10; trial++ {
		s := randomScenario(rng)
		for _, p := range Protocols() {
			for _, b := range allBounds {
				o1, err := e.WeightedRate(p, b, s, 0.4, 1.1)
				if err != nil {
					t.Fatal(err)
				}
				v1 := o1.Objective
				o2, err := e.WeightedRate(p, b, s.Swap(), 1.1, 0.4)
				if err != nil {
					t.Fatal(err)
				}
				if !xmath.ApproxEqual(v1, o2.Objective, 1e-9*(1+v1)) {
					t.Errorf("%v %v: swap asymmetry %g vs %g", p, b, v1, o2.Objective)
				}
			}
		}
	}
}

// TestEvaluatorZeroAllocs is the allocation-regression gate for the
// steady-state LP hot path: sum-rate and feasibility evaluation must not
// allocate for any protocol, on either the closed-form or the cold simplex
// path (Naive4, HBC).
func TestEvaluatorZeroAllocs(t *testing.T) {
	e := NewEvaluator()
	s := NewScenarioDB(10, -7, 0, 5)
	target := RatePair{Ra: 0.5, Rb: 0.5}
	for _, p := range Protocols() {
		for _, b := range allBounds {
			// Warm the workspace so steady state is measured.
			if _, err := e.SumRate(p, b, s); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Feasible(p, b, s, target); err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(100, func() {
				if _, err := e.SumRate(p, b, s); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%v %v: SumRate allocates %.1f/op, want 0", p, b, n)
			}
			if n := testing.AllocsPerRun(100, func() {
				if _, err := e.Feasible(p, b, s, target); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%v %v: Feasible allocates %.1f/op, want 0", p, b, n)
			}
		}
	}
}

// TestWarmStartOffIsDefault pins that evaluator results are history-free:
// an evaluator that has just solved other scenarios returns the same bits
// as a fresh one for every simplex-backed bound, so no solve carries state
// (such as a previous basis) into the next.
func TestWarmStartOffIsDefault(t *testing.T) {
	s := NewScenarioDB(10, -7, 0, 5)
	history := []Scenario{NewScenarioDB(-5, -7, 0, 5), NewScenarioDB(0, -3, 2, 1), NewScenarioDB(10, -7, 0.1, 5)}
	used := NewEvaluator()
	for _, p := range []Protocol{Naive4, HBC} {
		for _, b := range allBounds {
			for _, h := range history {
				if _, err := used.WeightedRate(p, b, h, 1, 1); err != nil {
					t.Fatal(err)
				}
			}
			got, err := used.WeightedRate(p, b, s, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewEvaluator().WeightedRate(p, b, s, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got.Objective != want.Objective || got.Rates != want.Rates || !slices.Equal(got.Durations, want.Durations) {
				t.Errorf("%v %v: history changed the result: %+v vs fresh %+v", p, b, got, want)
			}
		}
	}
}

// BenchmarkEvaluatorSolve measures one steady-state sum-rate evaluation per
// protocol (compile-free template rewrite + fast path or workspace simplex).
func BenchmarkEvaluatorSolve(b *testing.B) {
	s := NewScenarioDB(10, -7, 0, 5)
	for _, p := range Protocols() {
		b.Run(p.String(), func(b *testing.B) {
			e := NewEvaluator()
			if _, err := e.SumRate(p, BoundInner, s); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.SumRate(p, BoundInner, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvaluatorFeasible measures one steady-state feasibility probe.
func BenchmarkEvaluatorFeasible(b *testing.B) {
	s := NewScenarioDB(10, -7, 0, 5)
	target := RatePair{Ra: 0.5, Rb: 0.5}
	e := NewEvaluator()
	if _, err := e.Feasible(HBC, BoundInner, s, target); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Feasible(HBC, BoundInner, s, target); err != nil {
			b.Fatal(err)
		}
	}
}
