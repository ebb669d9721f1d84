package protocols

// This file implements the allocation-free evaluation hot path. Every
// quantity the reproduction reports reduces to a tiny LP per scenario, and
// the Monte Carlo layer re-solves that LP per protocol per fading block, so
// per-solve cost and allocation pressure are the throughput levers.
//
// Three layers cooperate:
//
//  1. Constraint templates. The structure of each theorem's constraint set —
//     which rate coefficients appear, and which mutual-information term
//     multiplies each phase duration — is scenario-independent. Templates
//     are derived once per (protocol, bound) by compiling a sentinel
//     LinkInfos whose fields carry distinct marker values and mapping each
//     PhaseCap entry back to its term, so compile.go remains the single
//     transcription of the paper's theorems and the templates can never
//     drift from it. Per call, only the term values are rewritten.
//
//  2. Closed-form fast paths. For bounds with at most three phases (DT,
//     MABC, TDBC) and 0/1 rate coefficients, the weighted-rate LP and the
//     rate-pair feasibility LP are solved exactly by candidate-vertex
//     enumeration over the one- or two-dimensional duration simplex instead
//     of the general two-phase simplex: the optimal value is a concave
//     piecewise-linear function of the free durations, so its maximum is
//     attained at an intersection of the (few) kink and boundary lines.
//
//  3. A reusable simplex.Workspace plus preallocated LP row buffers for the
//     protocols the fast path does not cover (Naive4, HBC), so even the
//     general-solver fallback performs no steady-state allocation.
//
// An Evaluator is cheap to create but not goroutine-safe: give each worker
// its own (as internal/sim does), or lease one from the single
// process-wide pool with GetEvaluator/PutEvaluator. That pool backs the
// Engine, every internal/sweep worker and the package-level entry points;
// evaluator results never depend on call history, so which pooled
// evaluator serves a call cannot change its output.

import (
	"fmt"
	"math"
	"sync"

	"bicoop/internal/channel"
	"bicoop/internal/region"
	"bicoop/internal/simplex"
)

// term indexes one mutual-information field of LinkInfos (or the constant
// zero) inside a constraint template.
type term uint8

const (
	termZero term = iota
	termAtoR
	termBtoR
	termAtoB
	termBtoA
	termRtoA
	termRtoB
	termMACAGivenB
	termMACBGivenA
	termMACSum
	termAtoRB
	termBtoRA
	numTerms
)

// termValues fills dst so that dst[t] is the value of term t.
func (li LinkInfos) termValues(dst *[numTerms]float64) {
	dst[termZero] = 0
	dst[termAtoR] = li.AtoR
	dst[termBtoR] = li.BtoR
	dst[termAtoB] = li.AtoB
	dst[termBtoA] = li.BtoA
	dst[termRtoA] = li.RtoA
	dst[termRtoB] = li.RtoB
	dst[termMACAGivenB] = li.MACAGivenB
	dst[termMACBGivenA] = li.MACBGivenA
	dst[termMACSum] = li.MACSum
	dst[termAtoRB] = li.AtoRB
	dst[termBtoRA] = li.BtoRA
}

// MaxPhases bounds the phase count of any compiled bound (HBC/Naive4 use
// all four). Exported for fixed-size consumers: the result cache's value
// record stores per-phase durations in a [MaxPhases]float64.
const MaxPhases = 4

const (
	// maxPhases is the package-internal alias of MaxPhases.
	maxPhases = MaxPhases
	// maxTplCons bounds the constraint count of any compiled bound.
	maxTplCons = 8
	// maxKinkLines bounds the candidate kink/boundary line set of the fast
	// path (see fastWeighted); sized with ample slack over the worst real
	// template (TDBC outer: 10 kinks + 3 boundaries).
	maxKinkLines = 64
)

// conTemplate is one constraint with its phase capacities expressed as term
// references instead of numbers.
type conTemplate struct {
	coefRa, coefRb float64
	phase          [maxPhases]term
}

// specTemplate is the scenario-independent structure of one compiled bound.
type specTemplate struct {
	// ok reports that template derivation succeeded; when false the
	// Evaluator falls back to Compile per call.
	ok bool
	// fast reports that the closed-form candidate enumeration applies:
	// two or three phases, 0/1 rate coefficients, and at least one
	// constraint bounding each individual rate.
	fast   bool
	phases int
	cons   []conTemplate
	// aIdx/bIdx/cIdx partition cons into Ra-only, Rb-only and sum-rate
	// constraints for the fast path.
	aIdx, bIdx, cIdx []int
	// needs marks the terms the constraints reference, so the Gaussian
	// scenario path can evaluate only those mutual informations (see
	// linkInfosMasked).
	needs [numTerms]bool
}

var (
	templateOnce sync.Once
	// templateTab is indexed [protocol][bound] (both enums start at 1).
	templateTab [HBC + 1][BoundOuter + 1]specTemplate
)

// templateFor returns the cached template, or nil for unknown enums.
func templateFor(p Protocol, b Bound) *specTemplate {
	templateOnce.Do(buildTemplates)
	if p < DT || p > HBC || b < BoundInner || b > BoundOuter {
		return nil
	}
	return &templateTab[p][b]
}

// buildTemplates derives every template by compiling sentinel link
// informations: each field carries a distinct marker value, so each PhaseCap
// entry of the compiled constraints identifies its term exactly.
func buildTemplates() {
	sentinel := LinkInfos{
		AtoR: 1, BtoR: 2, AtoB: 3, BtoA: 4, RtoA: 5, RtoB: 6,
		MACAGivenB: 7, MACBGivenA: 8, MACSum: 9, AtoRB: 10, BtoRA: 11,
	}
	var marks [numTerms]float64
	sentinel.termValues(&marks)
	for _, p := range Protocols() {
		for _, b := range []Bound{BoundInner, BoundOuter} {
			templateTab[p][b] = deriveTemplate(p, b, sentinel, &marks)
		}
	}
}

func deriveTemplate(p Protocol, b Bound, sentinel LinkInfos, marks *[numTerms]float64) specTemplate {
	spec, err := Compile(p, b, sentinel)
	if err != nil || spec.Phases < 1 || spec.Phases > maxPhases || len(spec.Cons) > maxTplCons {
		return specTemplate{}
	}
	tpl := specTemplate{phases: spec.Phases, cons: make([]conTemplate, 0, len(spec.Cons))}
	coefOK := true
	for ci, con := range spec.Cons {
		ct := conTemplate{coefRa: con.CoefRa, coefRb: con.CoefRb}
		for l := 0; l < spec.Phases; l++ {
			v := 0.0
			if l < len(con.PhaseCap) {
				v = con.PhaseCap[l]
			}
			t, found := termOfMark(v, marks)
			if !found {
				return specTemplate{} // not a plain term reference; use Compile
			}
			ct.phase[l] = t
			tpl.needs[t] = true
		}
		tpl.cons = append(tpl.cons, ct)
		switch {
		case con.CoefRa == 1 && con.CoefRb == 0:
			tpl.aIdx = append(tpl.aIdx, ci)
		case con.CoefRa == 0 && con.CoefRb == 1:
			tpl.bIdx = append(tpl.bIdx, ci)
		case con.CoefRa == 1 && con.CoefRb == 1:
			tpl.cIdx = append(tpl.cIdx, ci)
		default:
			coefOK = false
		}
	}
	tpl.ok = true
	tpl.fast = coefOK &&
		(spec.Phases == 2 || spec.Phases == 3) &&
		len(tpl.aIdx) >= 1 && len(tpl.bIdx) >= 1
	return tpl
}

func termOfMark(v float64, marks *[numTerms]float64) (term, bool) {
	for t := termZero; t < numTerms; t++ {
		if marks[t] == v {
			return t, true
		}
	}
	return 0, false
}

// Evaluator evaluates protocol bounds without steady-state heap allocation.
// It caches the scenario-independent constraint templates, owns a reusable
// simplex workspace and LP row buffers, and applies closed-form fast paths
// where they exist. An Evaluator is not safe for concurrent use; give each
// goroutine its own.
type Evaluator struct {
	ws    simplex.Workspace
	terms [numTerms]float64
	caps  [maxTplCons][maxPhases]float64
	durs  [maxPhases]float64

	// LP build buffers for the simplex fallback.
	c       []float64
	aubFlat []float64
	aub     [][]float64
	bub     []float64
	aeqFlat []float64
	aeq     [][]float64
	beq     []float64
}

// SetWarmStart is a no-op. Every Naive4/HBC weighted-rate LP is the cold
// SolveIn solve, so results never depend on call history.
//
// Deprecated: LP warm starting was removed. The method stays only because
// perfbench/trace.go still calls it, and the perfbench module changes only
// together with the benchmark itself; delete it when that call goes.
func (e *Evaluator) SetWarmStart(bool) {}

// ResetWarmStart is a no-op: there is no warm-start state to drop.
//
// Deprecated: LP warm starting was removed. The method stays only because
// perfbench/trace.go still calls it, and the perfbench module changes only
// together with the benchmark itself; delete it when that call goes.
func (e *Evaluator) ResetWarmStart() {}

// NewEvaluator returns a ready-to-use evaluator.
func NewEvaluator() *Evaluator { return &Evaluator{} }

// evalPool is the process-wide evaluator pool.
var evalPool = sync.Pool{New: func() any { return NewEvaluator() }}

// GetEvaluator leases an evaluator from the process-wide pool. Return it
// with PutEvaluator once no result aliasing its memory is still in use.
func GetEvaluator() *Evaluator { return evalPool.Get().(*Evaluator) }

// PutEvaluator returns a leased evaluator to the process-wide pool.
func PutEvaluator(e *Evaluator) { evalPool.Put(e) }

// WeightedRate maximizes muA·Ra + muB·Rb over the bound for a Gaussian
// scenario, like Spec.MaxWeightedRate but allocation-free. The returned
// Optimum.Durations aliases evaluator memory and is valid until the next
// call on this evaluator; copy it out if it must survive longer.
//
// When the bound has a cached template, only the mutual-information terms
// its constraints reference are evaluated — for the two- and three-phase
// bounds that halves the transcendental cost per scenario, the dominant
// term of batch sweeps.
func (e *Evaluator) WeightedRate(p Protocol, b Bound, s Scenario, muA, muB float64) (Optimum, error) {
	li, err := e.linkInfosFor(p, b, s)
	if err != nil {
		return Optimum{}, err
	}
	return e.WeightedRateLinks(p, b, li, muA, muB)
}

// linkInfosFor evaluates the scenario's link informations, masked to the
// bound's template when one exists.
func (e *Evaluator) linkInfosFor(p Protocol, b Bound, s Scenario) (LinkInfos, error) {
	if tpl := templateFor(p, b); tpl != nil && tpl.ok {
		return linkInfosMasked(s, &tpl.needs)
	}
	return LinkInfosFromScenario(s)
}

// linkInfosMasked evaluates only the terms marked in need. Exact aliases
// under reciprocity (a-r, b-r, a-b rates each back several terms) share one
// computation; unused terms stay zero, which the templates never read and
// LinkInfos.Validate accepts.
func linkInfosMasked(s Scenario, need *[numTerms]bool) (LinkInfos, error) {
	if err := s.Validate(); err != nil {
		return LinkInfos{}, err
	}
	p, g := s.P, s.G
	var li LinkInfos
	if need[termAtoR] || need[termRtoA] || need[termMACAGivenB] {
		r := channel.LinkRate(p, g.AR)
		li.AtoR, li.RtoA, li.MACAGivenB = r, r, r
	}
	if need[termBtoR] || need[termRtoB] || need[termMACBGivenA] {
		r := channel.LinkRate(p, g.BR)
		li.BtoR, li.RtoB, li.MACBGivenA = r, r, r
	}
	if need[termAtoB] || need[termBtoA] {
		r := channel.LinkRate(p, g.AB)
		li.AtoB, li.BtoA = r, r
	}
	if need[termMACSum] {
		li.MACSum = channel.MAC(p, g).Sum
	}
	if need[termAtoRB] {
		li.AtoRB = channel.SIMORate(p, g.AR, g.AB)
	}
	if need[termBtoRA] {
		li.BtoRA = channel.SIMORate(p, g.BR, g.AB)
	}
	return li, nil
}

// SumRate returns the LP-optimal sum rate Ra+Rb of the bound for a Gaussian
// scenario. It is the Monte Carlo per-block kernel and performs no heap
// allocation.
func (e *Evaluator) SumRate(p Protocol, b Bound, s Scenario) (float64, error) {
	opt, err := e.WeightedRate(p, b, s, 1, 1)
	if err != nil {
		return 0, err
	}
	return opt.Objective, nil
}

// SumRateLinks is SumRate for externally supplied mutual informations (the
// DMC path).
func (e *Evaluator) SumRateLinks(p Protocol, b Bound, li LinkInfos) (float64, error) {
	opt, err := e.WeightedRateLinks(p, b, li, 1, 1)
	if err != nil {
		return 0, err
	}
	return opt.Objective, nil
}

// WeightedRateLinks is WeightedRate for externally supplied mutual
// informations. The returned Optimum.Durations aliases evaluator memory.
func (e *Evaluator) WeightedRateLinks(p Protocol, b Bound, li LinkInfos, muA, muB float64) (Optimum, error) {
	if muA < 0 || muB < 0 {
		return Optimum{}, fmt.Errorf("protocols: negative weights (%g, %g)", muA, muB)
	}
	tpl := templateFor(p, b)
	if tpl == nil || !tpl.ok {
		// Unknown enums or a non-template bound shape (e.g. more phases
		// than the fixed buffers hold): the full Compile path reports the
		// right error or handles the exotic spec. This path may allocate —
		// it never runs for the compiled-in protocols.
		spec, err := Compile(p, b, li)
		if err != nil {
			return Optimum{}, err
		}
		sol, err := spec.lp(muA, muB).SolveIn(&e.ws)
		if err != nil {
			return Optimum{}, fmt.Errorf("protocols: %v %v weighted-rate LP: %w", p, b, err)
		}
		return Optimum{
			Rates:     RatePair{Ra: sol.X[0], Rb: sol.X[1]},
			Durations: append([]float64(nil), sol.X[2:2+spec.Phases]...),
			Objective: sol.Objective,
		}, nil
	}
	if err := li.Validate(); err != nil {
		return Optimum{}, err
	}
	e.loadCaps(tpl, li)
	if tpl.fast {
		if opt, ok := e.fastWeighted(tpl, muA, muB); ok {
			return opt, nil
		}
	}
	return e.simplexWeighted(tpl, p, b, muA, muB)
}

// Feasible reports whether the rate pair is within the bound for some choice
// of phase durations, like Spec.Feasible but allocation-free. Like
// WeightedRate, it evaluates only the template's terms.
func (e *Evaluator) Feasible(p Protocol, b Bound, s Scenario, r RatePair) (bool, error) {
	li, err := e.linkInfosFor(p, b, s)
	if err != nil {
		return false, err
	}
	return e.FeasibleLinks(p, b, li, r)
}

// FeasibleLinks is Feasible for externally supplied mutual informations.
func (e *Evaluator) FeasibleLinks(p Protocol, b Bound, li LinkInfos, r RatePair) (bool, error) {
	if r.Ra < 0 || r.Rb < 0 {
		return false, nil
	}
	tpl := templateFor(p, b)
	if tpl == nil || !tpl.ok {
		spec, err := Compile(p, b, li)
		if err != nil {
			return false, err
		}
		return spec.Feasible(r)
	}
	if err := li.Validate(); err != nil {
		return false, err
	}
	e.loadCaps(tpl, li)
	if tpl.fast {
		if feasible, ok := e.fastFeasible(tpl, r); ok {
			return feasible, nil
		}
	}
	return e.simplexFeasible(tpl, r)
}

// loadCaps rewrites the numeric phase capacities of the template's
// constraints from the link informations.
func (e *Evaluator) loadCaps(tpl *specTemplate, li LinkInfos) {
	li.termValues(&e.terms)
	for ci := range tpl.cons {
		ct := &tpl.cons[ci]
		for l := 0; l < tpl.phases; l++ {
			e.caps[ci][l] = e.terms[ct.phase[l]]
		}
	}
}

// --- Closed-form fast path -------------------------------------------------
//
// With the last duration eliminated (Δ_L = 1 - ΣΔ_ℓ), every constraint's
// right-hand side is an affine function of the k = L-1 free durations. For
// 0/1 rate coefficients the rate optimum at fixed durations is closed-form
// in the three envelope values A = min(Ra caps), B = min(Rb caps) and
// C = min(sum caps), so the LP value is a concave piecewise-linear function
// of the free durations and its maximum sits on an intersection of kink
// lines (pairs of capacity functions crossing) and simplex boundaries.
// Enumerating those candidate points solves the LP exactly.

// lin is an affine function c0 + c1·d1 + c2·d2 of the free durations.
type lin struct{ c0, c1, c2 float64 }

func (f lin) at(d1, d2 float64) float64 { return f.c0 + f.c1*d1 + f.c2*d2 }

// linOf converts a constraint's phase capacities to free-duration form.
func linOf(caps *[maxPhases]float64, phases int) lin {
	last := caps[phases-1]
	f := lin{c0: last}
	if phases >= 2 {
		f.c1 = caps[0] - last
	}
	if phases >= 3 {
		f.c2 = caps[1] - last
	}
	return f
}

// rateOpt maximizes muA·ra + muB·rb subject to 0 ≤ ra ≤ a, 0 ≤ rb ≤ b,
// ra+rb ≤ c (a, b, c ≥ 0; c may be +Inf). Greedy by the larger weight is
// optimal by an exchange argument.
func rateOpt(muA, muB, a, b, c float64) (ra, rb float64) {
	if muA >= muB {
		ra = math.Min(a, c)
		rb = math.Min(b, c-ra)
		return ra, rb
	}
	rb = math.Min(b, c)
	ra = math.Min(a, c-rb)
	return ra, rb
}

// fastEnv evaluates the three envelopes at a duration point.
func fastEnv(fa, fb, fc []lin, d1, d2 float64) (a, b, c float64) {
	a, b, c = math.Inf(1), math.Inf(1), math.Inf(1)
	for _, f := range fa {
		if v := f.at(d1, d2); v < a {
			a = v
		}
	}
	for _, f := range fb {
		if v := f.at(d1, d2); v < b {
			b = v
		}
	}
	for _, f := range fc {
		if v := f.at(d1, d2); v < c {
			c = v
		}
	}
	if a < 0 {
		a = 0
	}
	if b < 0 {
		b = 0
	}
	if c < 0 {
		c = 0
	}
	return a, b, c
}

// fastWeighted solves the weighted-rate LP by candidate enumeration. The
// bool result is false only if the enumeration overflowed its line budget
// (impossible for the compiled templates, guarded for robustness).
func (e *Evaluator) fastWeighted(tpl *specTemplate, muA, muB float64) (Optimum, bool) {
	var faArr, fbArr, fcArr [maxTplCons]lin
	fa := gatherLins(faArr[:0], tpl.aIdx, &e.caps, tpl.phases)
	fb := gatherLins(fbArr[:0], tpl.bIdx, &e.caps, tpl.phases)
	fc := gatherLins(fcArr[:0], tpl.cIdx, &e.caps, tpl.phases)

	best := bestPoint{val: math.Inf(-1)}
	eval := func(d1, d2 float64) {
		d1, d2 = clampSimplex(d1, d2)
		a, b, c := fastEnv(fa, fb, fc, d1, d2)
		ra, rb := rateOpt(muA, muB, a, b, c)
		if v := muA*ra + muB*rb; v > best.val {
			best = bestPoint{val: v, d1: d1, d2: d2, ra: ra, rb: rb}
		}
	}

	// Collect the kink lines: pairwise crossings within each envelope, the
	// sum envelope against each individual envelope, and the sum envelope
	// against each pairwise total a_i + b_j (where the ra+rb ≤ C constraint
	// starts binding jointly).
	var lines [maxKinkLines]lin
	n := 0
	add := func(f lin) bool {
		if n >= maxKinkLines {
			return false
		}
		lines[n] = f
		n++
		return true
	}
	ok := true
	for i := 0; i < len(fa) && ok; i++ {
		for j := i + 1; j < len(fa) && ok; j++ {
			ok = add(linDiff(fa[i], fa[j]))
		}
	}
	for i := 0; i < len(fb) && ok; i++ {
		for j := i + 1; j < len(fb) && ok; j++ {
			ok = add(linDiff(fb[i], fb[j]))
		}
	}
	for i := 0; i < len(fc) && ok; i++ {
		for j := i + 1; j < len(fc) && ok; j++ {
			ok = add(linDiff(fc[i], fc[j]))
		}
	}
	for _, fcv := range fc {
		for _, fav := range fa {
			if ok {
				ok = add(linDiff(fcv, fav))
			}
		}
		for _, fbv := range fb {
			if ok {
				ok = add(linDiff(fcv, fbv))
			}
		}
		for _, fav := range fa {
			for _, fbv := range fb {
				if ok {
					ok = add(linDiff(fcv, lin{fav.c0 + fbv.c0, fav.c1 + fbv.c1, fav.c2 + fbv.c2}))
				}
			}
		}
	}
	if !ok {
		return Optimum{}, false
	}

	if tpl.phases == 2 {
		enumerate1D(lines[:n], eval)
	} else {
		enumerate2D(lines[:n], eval)
	}

	e.durs[0] = best.d1
	if tpl.phases == 3 {
		e.durs[1] = best.d2
	}
	lastIdx := tpl.phases - 1
	e.durs[lastIdx] = math.Max(0, 1-best.d1-best.d2)
	return Optimum{
		Rates:     RatePair{Ra: best.ra, Rb: best.rb},
		Durations: e.durs[:tpl.phases:tpl.phases],
		Objective: best.val,
	}, true
}

// fastFeasible maximizes the uniform slack min_i(cap_i(d) - need_i) over the
// duration simplex by the same candidate enumeration; the pair is feasible
// iff the maximal slack is (numerically) non-negative. The enumeration is
// skipped when a cheap witness — the previous solve's durations or the
// equal split — already supports the pair (the common case for non-outage
// Monte Carlo blocks). The second result is false when the kink-line budget
// overflowed (impossible for the compiled templates); the caller must then
// fall back to the LP rather than trust a truncated enumeration.
func (e *Evaluator) fastFeasible(tpl *specTemplate, r RatePair) (feasible, ok bool) {
	dsum := 0.0
	for l := 0; l < tpl.phases; l++ {
		dsum += e.durs[l]
	}
	if math.Abs(dsum-1) <= 1e-9 && e.marginAt(tpl, r, e.durs[:tpl.phases]) >= -feasSlackTol {
		return true, true
	}
	equal := [maxPhases]float64{}
	for l := 0; l < tpl.phases; l++ {
		equal[l] = 1 / float64(tpl.phases)
	}
	if e.marginAt(tpl, r, equal[:tpl.phases]) >= -feasSlackTol {
		return true, true
	}
	var gArr [maxTplCons]lin
	g := gArr[:0]
	for ci := range tpl.cons {
		ct := &tpl.cons[ci]
		f := linOf(&e.caps[ci], tpl.phases)
		f.c0 -= ct.coefRa*r.Ra + ct.coefRb*r.Rb
		g = append(g, f)
	}
	best := math.Inf(-1)
	eval := func(d1, d2 float64) {
		d1, d2 = clampSimplex(d1, d2)
		w := math.Inf(1)
		for _, f := range g {
			if v := f.at(d1, d2); v < w {
				w = v
			}
		}
		if w > best {
			best = w
		}
	}
	var lines [maxKinkLines]lin
	n := 0
	for i := 0; i < len(g); i++ {
		for j := i + 1; j < len(g); j++ {
			if n >= maxKinkLines {
				return false, false
			}
			lines[n] = linDiff(g[i], g[j])
			n++
		}
	}
	if tpl.phases == 2 {
		enumerate1D(lines[:n], eval)
	} else {
		enumerate2D(lines[:n], eval)
	}
	return best >= -feasSlackTol, true
}

// feasSlackTol matches the simplex phase-1 feasibility tolerance so the fast
// path and the LP fallback classify near-boundary points consistently.
const feasSlackTol = 1e-9

type bestPoint struct {
	val, d1, d2, ra, rb float64
}

func gatherLins(dst []lin, idx []int, caps *[maxTplCons][maxPhases]float64, phases int) []lin {
	for _, ci := range idx {
		dst = append(dst, linOf(&caps[ci], phases))
	}
	return dst
}

func linDiff(f, g lin) lin { return lin{f.c0 - g.c0, f.c1 - g.c1, f.c2 - g.c2} }

func clampSimplex(d1, d2 float64) (float64, float64) {
	if d1 < 0 {
		d1 = 0
	}
	if d2 < 0 {
		d2 = 0
	}
	if s := d1 + d2; s > 1 {
		d1 /= s
		d2 /= s
	}
	return d1, d2
}

// enumerate1D visits the endpoints of [0,1] and every root of a kink line
// (one free duration: c2 is unused).
func enumerate1D(lines []lin, eval func(d1, d2 float64)) {
	eval(0, 0)
	eval(1, 0)
	for _, f := range lines {
		if math.Abs(f.c1) < 1e-14 {
			continue
		}
		d := -f.c0 / f.c1
		if d > 0 && d < 1 {
			eval(d, 0)
		}
	}
}

// enumerate2D visits every pairwise intersection of the kink lines and the
// three simplex boundary lines that lands inside the duration simplex (the
// simplex vertices arise as boundary-boundary intersections).
func enumerate2D(lines []lin, eval func(d1, d2 float64)) {
	var all [maxKinkLines + 3]lin
	m := copy(all[:], lines)
	all[m] = lin{c0: 0, c1: 1, c2: 0}   // d1 = 0
	all[m+1] = lin{c0: 0, c1: 0, c2: 1} // d2 = 0
	all[m+2] = lin{c0: 1, c1: -1, c2: -1}
	m += 3
	const eps = 1e-9
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			fi, fj := all[i], all[j]
			det := fi.c1*fj.c2 - fi.c2*fj.c1
			if math.Abs(det) < 1e-14 {
				continue
			}
			d1 := (-fi.c0*fj.c2 + fi.c2*fj.c0) / det
			d2 := (-fi.c1*fj.c0 + fi.c0*fj.c1) / det
			if d1 < -eps || d2 < -eps || d1+d2 > 1+eps {
				continue
			}
			eval(d1, d2)
		}
	}
}

// --- Simplex fallback ------------------------------------------------------
//
// Both fallback LPs are built with the last phase duration substituted out
// (Δ_L = 1 - ΣΔ_ℓ): every right-hand side becomes non-negative and the
// duration-sum equality becomes the inequality ΣΔ_ℓ ≤ 1, so the all-slack
// starting basis is feasible and the solver skips phase 1 entirely.

// simplexWeighted solves max muA·Ra + muB·Rb over variables
// x = [Ra, Rb, Δ1..Δ_{L-1}]: one row per constraint
// (rates - Σ (cap_ℓ - cap_L)·Δ_ℓ ≤ cap_L) plus the simplex row ΣΔ_ℓ ≤ 1.
func (e *Evaluator) simplexWeighted(tpl *specTemplate, p Protocol, b Bound, muA, muB float64) (Optimum, error) {
	k := tpl.phases - 1
	n := 2 + k
	m := len(tpl.cons)

	e.c = sizeFloats(e.c, n)
	e.c[0], e.c[1] = muA, muB
	e.aubFlat = sizeFloats(e.aubFlat, (m+1)*n)
	e.aub = sizeRows(e.aub, m+1)
	e.bub = sizeFloats(e.bub, m+1)
	for i := 0; i < m; i++ {
		row := e.aubFlat[i*n : (i+1)*n]
		ct := &tpl.cons[i]
		row[0], row[1] = ct.coefRa, ct.coefRb
		last := e.caps[i][tpl.phases-1]
		for l := 0; l < k; l++ {
			row[2+l] = last - e.caps[i][l]
		}
		e.aub[i] = row
		e.bub[i] = last
	}
	row := e.aubFlat[m*n : (m+1)*n]
	for l := 0; l < k; l++ {
		row[2+l] = 1
	}
	e.aub[m] = row
	e.bub[m] = 1

	sol, err := simplex.Problem{C: e.c, AUb: e.aub, BUb: e.bub}.SolveIn(&e.ws)
	if err != nil {
		return Optimum{}, fmt.Errorf("protocols: %v %v weighted-rate LP: %w", p, b, err)
	}
	sum := 0.0
	for l := 0; l < k; l++ {
		e.durs[l] = sol.X[2+l]
		sum += sol.X[2+l]
	}
	e.durs[tpl.phases-1] = math.Max(0, 1-sum)
	return Optimum{
		Rates:     RatePair{Ra: sol.X[0], Rb: sol.X[1]},
		Durations: e.durs[:tpl.phases:tpl.phases],
		Objective: sol.Objective,
	}, nil
}

// marginAt returns min_i(cap_i(Δ) - need_i) at a specific duration vector —
// a lower bound on the maximal slack, so a non-negative value proves
// feasibility without solving the LP.
func (e *Evaluator) marginAt(tpl *specTemplate, r RatePair, durs []float64) float64 {
	margin := math.Inf(1)
	for i := range tpl.cons {
		ct := &tpl.cons[i]
		rhs := 0.0
		for l := 0; l < tpl.phases; l++ {
			rhs += e.caps[i][l] * durs[l]
		}
		if m := rhs - (ct.coefRa*r.Ra + ct.coefRb*r.Rb); m < margin {
			margin = m
		}
	}
	return margin
}

// simplexFeasible probes the rate pair by maximizing the uniform slack
// t = min_i(cap_i(Δ) - need_i) over the duration simplex, shifted by
// T0 = max_i need_i so the shifted slack t' = t + T0 is a non-negative LP
// variable and every right-hand side stays non-negative (phase-2-only
// solve). The pair is feasible iff the optimal t' reaches T0.
//
// Before building the LP it tries two sufficient witnesses — the duration
// vector of the evaluator's previous weighted solve (outage probes typically
// follow a sum-rate solve on the same block) and the equal split. A
// non-negative margin at either proves feasibility and skips the LP, which
// is the common case for non-outage blocks.
func (e *Evaluator) simplexFeasible(tpl *specTemplate, r RatePair) (bool, error) {
	dsum := 0.0
	for l := 0; l < tpl.phases; l++ {
		dsum += e.durs[l]
	}
	if math.Abs(dsum-1) <= 1e-9 && e.marginAt(tpl, r, e.durs[:tpl.phases]) >= -feasSlackTol {
		return true, nil
	}
	equal := [maxPhases]float64{}
	for l := 0; l < tpl.phases; l++ {
		equal[l] = 1 / float64(tpl.phases)
	}
	if e.marginAt(tpl, r, equal[:tpl.phases]) >= -feasSlackTol {
		return true, nil
	}
	k := tpl.phases - 1
	n := 1 + k
	m := len(tpl.cons)

	t0 := 0.0
	for i := 0; i < m; i++ {
		ct := &tpl.cons[i]
		if need := ct.coefRa*r.Ra + ct.coefRb*r.Rb; need > t0 {
			t0 = need
		}
	}
	e.c = sizeFloats(e.c, n)
	e.c[0] = 1
	e.aubFlat = sizeFloats(e.aubFlat, (m+1)*n)
	e.aub = sizeRows(e.aub, m+1)
	e.bub = sizeFloats(e.bub, m+1)
	for i := 0; i < m; i++ {
		row := e.aubFlat[i*n : (i+1)*n]
		ct := &tpl.cons[i]
		row[0] = 1
		last := e.caps[i][tpl.phases-1]
		for l := 0; l < k; l++ {
			row[1+l] = last - e.caps[i][l]
		}
		e.aub[i] = row
		e.bub[i] = last - (ct.coefRa*r.Ra + ct.coefRb*r.Rb) + t0
	}
	row := e.aubFlat[m*n : (m+1)*n]
	for l := 0; l < k; l++ {
		row[1+l] = 1
	}
	e.aub[m] = row
	e.bub[m] = 1

	sol, err := simplex.Problem{C: e.c, AUb: e.aub, BUb: e.bub}.SolveIn(&e.ws)
	if err != nil {
		return false, fmt.Errorf("protocols: feasibility LP: %w", err)
	}
	return sol.Objective >= t0-feasSlackTol, nil
}

func sizeFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

func sizeRows(buf [][]float64, n int) [][]float64 {
	if cap(buf) < n {
		buf = make([][]float64, n)
	}
	return buf[:n]
}

// --- Batch and region entry points ----------------------------------------

// EvaluateBatch computes the optimal sum rate of the bound for every
// scenario, reusing the evaluator's state across solves. Results are
// appended to dst (which may be nil) and the extended slice is returned.
func (e *Evaluator) EvaluateBatch(p Protocol, b Bound, scenarios []Scenario, dst []float64) ([]float64, error) {
	for _, s := range scenarios {
		v, err := e.SumRate(p, b, s)
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// Region computes the bound's rate region like Spec.Region, but reuses the
// evaluator across the support-direction sweep so only the polygon itself is
// allocated.
func (e *Evaluator) Region(p Protocol, b Bound, s Scenario, opts RegionOptions) (region.Polygon, error) {
	li, err := LinkInfosFromScenario(s)
	if err != nil {
		return region.Polygon{}, err
	}
	return regionFromSolver(func(muA, muB float64) (Optimum, error) {
		return e.WeightedRateLinks(p, b, li, muA, muB)
	}, opts)
}
