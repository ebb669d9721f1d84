package prob

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// TestWordBernoulliEdgeCases pins the degenerate samplers: p <= 0 (and NaN)
// always return the empty mask, p >= 1 the full mask, and neither consumes
// randomness — the draw count is part of the canonical stream contract.
func TestWordBernoulliEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range []float64{0, -0.5, math.NaN()} {
		g := NewWordBernoulli(p)
		if got := g.Mask(rng); got != 0 {
			t.Errorf("NewWordBernoulli(%v).Mask() = %#x, want 0", p, got)
		}
		if g != (WordBernoulli{}) {
			t.Errorf("NewWordBernoulli(%v) = %+v, want the zero sampler", p, g)
		}
	}
	for _, p := range []float64{1, 1.5} {
		g := NewWordBernoulli(p)
		if got := g.Mask(rng); got != ^uint64(0) {
			t.Errorf("NewWordBernoulli(%v).Mask() = %#x, want all ones", p, got)
		}
		if g != (WordBernoulli{full: true}) {
			t.Errorf("NewWordBernoulli(%v) = %+v, want the full sampler", p, g)
		}
	}
	// No draws consumed above: the stream position must be untouched.
	want := rand.New(rand.NewSource(1)).Uint64()
	if got := rng.Uint64(); got != want {
		t.Errorf("degenerate samplers consumed randomness: next draw %#x, want %#x", got, want)
	}
}

// TestWordBernoulliDyadicExact pins the refinement against hand-computable
// dyadic probabilities: p = 1/2 is exactly the complement of one Uint64
// draw, and p = 1/4 the NOR of two.
func TestWordBernoulliDyadicExact(t *testing.T) {
	u1 := rand.New(rand.NewSource(9)).Uint64()
	if got, want := NewWordBernoulli(0.5).Mask(rand.New(rand.NewSource(9))), ^u1; got != want {
		t.Errorf("p=1/2 mask = %#x, want ^first draw %#x", got, want)
	}
	ref := rand.New(rand.NewSource(9))
	a, b := ref.Uint64(), ref.Uint64()
	if got, want := NewWordBernoulli(0.25).Mask(rand.New(rand.NewSource(9))), ^a & ^b; got != want {
		t.Errorf("p=1/4 mask = %#x, want NOR of two draws %#x", got, want)
	}
}

// TestWordBernoulliP pins the fixed-point round trip to float64 accuracy.
func TestWordBernoulliP(t *testing.T) {
	for _, p := range []float64{0.1, 0.2, 0.35, 0.5, 0.6, 0.9, 1e-6, 1 - 1e-9} {
		if got := float64(NewWordBernoulli(p).bits) * 0x1p-64; math.Abs(got-p) > 1e-12 {
			t.Errorf("fixed-point round trip %v -> %v", p, got)
		}
	}
}

// TestWordBernoulliMarginalsVsScalarOracle is the seeded two-sample check
// against the scalar path the masks replaced: per-lane frequencies from the
// word sampler and from rng.Float64() < p must agree with each other and
// with p within 4 standard errors. Seeds are fixed, so this is
// deterministic — the margin documents expected agreement, not flakiness.
func TestWordBernoulliMarginalsVsScalarOracle(t *testing.T) {
	const words = 4000 // 256k lanes per operating point
	for _, p := range []float64{0.1, 0.2, 0.35, 0.5, 0.6, 0.9} {
		g := NewWordBernoulli(p)
		rng := rand.New(rand.NewSource(int64(1000 * p)))
		ones := 0
		for i := 0; i < words; i++ {
			ones += bits.OnesCount64(g.Mask(rng))
		}
		oracle := rand.New(rand.NewSource(int64(1000*p) + 7))
		scalarOnes := 0
		for i := 0; i < words*64; i++ {
			if oracle.Float64() < p {
				scalarOnes++
			}
		}
		n := float64(words * 64)
		se := math.Sqrt(p * (1 - p) / n)
		if f := float64(ones) / n; math.Abs(f-p) > 4*se {
			t.Errorf("p=%v: word marginal %.5f off by more than 4 SE (%.5f)", p, f, 4*se)
		}
		if f := float64(scalarOnes) / n; math.Abs(f-p) > 4*se {
			t.Errorf("p=%v: scalar oracle marginal %.5f off by more than 4 SE — oracle broken?", p, f)
		}
		if diff := math.Abs(float64(ones)-float64(scalarOnes)) / n; diff > 4*math.Sqrt2*se {
			t.Errorf("p=%v: word vs scalar marginals differ by %.5f (> 4 combined SE)", p, diff)
		}
	}
}

// TestWordBernoulliPerLaneChiSquare checks lane uniformity: the 64 per-lane
// success counts over N masks form a chi-square statistic with 63 degrees
// of freedom; a lane bias (e.g. the refinement favouring low bits) would
// blow it up. The bound is mean + 5·sd of chi2(63), far beyond any sane
// quantile, and the seed is fixed.
func TestWordBernoulliPerLaneChiSquare(t *testing.T) {
	const (
		p     = 0.3
		masks = 20000
	)
	g := NewWordBernoulli(p)
	rng := rand.New(rand.NewSource(42))
	var lane [64]int
	for i := 0; i < masks; i++ {
		m := g.Mask(rng)
		for ; m != 0; m &= m - 1 {
			lane[bits.TrailingZeros64(m)]++
		}
	}
	var chi2 float64
	for _, c := range lane {
		d := float64(c) - p*masks
		chi2 += d * d / (p * masks * (1 - p))
	}
	// chi2(63): mean 63, variance 126.
	if limit := 63 + 5*math.Sqrt(126); chi2 > limit {
		t.Errorf("per-lane chi-square %.1f exceeds %.1f: lanes are biased", chi2, limit)
	}
}

// TestWordBernoulliLanePairIndependence checks pairwise independence of
// adjacent lanes within a mask and of the same lane across consecutive
// masks: the four cell counts of each pair must match the product
// distribution by chi-square with 3 degrees of freedom (bound mean + 5·sd,
// fixed seed).
func TestWordBernoulliLanePairIndependence(t *testing.T) {
	const (
		p     = 0.4
		masks = 20000
	)
	g := NewWordBernoulli(p)
	rng := rand.New(rand.NewSource(13))
	var adj [4]int    // (lane j, lane j+1) for even j, within one mask
	var serial [4]int // (lane 0 of mask i, lane 0 of mask i+1)
	prev := -1
	for i := 0; i < masks; i++ {
		m := g.Mask(rng)
		for j := 0; j < 64; j += 2 {
			adj[int(m>>uint(j)&1)<<1|int(m>>uint(j+1)&1)]++
		}
		b0 := int(m & 1)
		if prev >= 0 {
			serial[prev<<1|b0]++
		}
		prev = b0
	}
	check := func(name string, cells [4]int, n int) {
		t.Helper()
		exp := [4]float64{
			(1 - p) * (1 - p) * float64(n), (1 - p) * p * float64(n),
			p * (1 - p) * float64(n), p * p * float64(n),
		}
		var chi2 float64
		for i, c := range cells {
			d := float64(c) - exp[i]
			chi2 += d * d / exp[i]
		}
		if limit := 3 + 5*math.Sqrt(6.0); chi2 > limit {
			t.Errorf("%s chi-square %.1f exceeds %.1f: lanes are correlated", name, chi2, limit)
		}
	}
	check("adjacent-lane", adj, masks*32)
	check("serial", serial, masks-1)
}

// TestWordBernoulliZeroAlloc gates the mask fast path at 0 allocations —
// the simulators draw it inside their 0-allocs/block kernels.
func TestWordBernoulliZeroAlloc(t *testing.T) {
	g := NewWordBernoulli(0.2)
	rng := rand.New(rand.NewSource(3))
	var sink uint64
	if n := testing.AllocsPerRun(1000, func() { sink ^= g.Mask(rng) }); n != 0 {
		t.Errorf("Mask allocates %.2f/op, want 0", n)
	}
	_ = sink
}
