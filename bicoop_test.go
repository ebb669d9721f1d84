package bicoop

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

// fig4 is the paper's Fig 4 evaluation scenario at the given power.
func fig4(powerDB float64) Scenario {
	return Scenario{PowerDB: powerDB, GabDB: -7, GarDB: 0, GbrDB: 5}
}

func TestProtocolFacade(t *testing.T) {
	tests := []struct {
		p      Protocol
		name   string
		phases int
	}{
		{DT, "DT", 2},
		{Naive4, "Naive4", 4},
		{MABC, "MABC", 2},
		{TDBC, "TDBC", 3},
		{HBC, "HBC", 4},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.name {
			t.Errorf("String = %q, want %q", got, tt.name)
		}
		if got := tt.p.Phases(); got != tt.phases {
			t.Errorf("%v.Phases = %d, want %d", tt.p, got, tt.phases)
		}
	}
	if got := Protocol(0).String(); got != "Protocol(0)" {
		t.Errorf("unknown protocol String = %q", got)
	}
	if got := Protocol(0).Phases(); got != 0 {
		t.Errorf("unknown protocol Phases = %d", got)
	}
	if got := Bound(0).String(); got != "Bound(0)" {
		t.Errorf("unknown bound String = %q", got)
	}
	if len(AllProtocols()) != 5 {
		t.Errorf("AllProtocols = %v", AllProtocols())
	}
}

func TestOptimalSumRateFacade(t *testing.T) {
	eng := NewEngine()
	res, err := eng.SumRate(MABC, Inner, fig4(0))
	if err != nil {
		t.Fatal(err)
	}
	// Known value from the internal cross-validation: 1.0000 at P=0 dB.
	if math.Abs(res.Sum-1.0) > 1e-3 {
		t.Errorf("MABC sum at 0 dB = %v, want ~1.0", res.Sum)
	}
	if math.Abs(res.Point.Sum()-res.Sum) > 1e-9 {
		t.Errorf("point sum %v != objective %v", res.Point.Sum(), res.Sum)
	}
	var total float64
	for _, d := range res.Durations {
		total += d
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("durations sum to %v", total)
	}
	if _, err := eng.SumRate(Protocol(99), Inner, fig4(0)); !errors.Is(err, ErrUnknownProtocol) {
		t.Errorf("err = %v, want ErrUnknownProtocol", err)
	}
	if _, err := eng.SumRate(MABC, Bound(99), fig4(0)); !errors.Is(err, ErrUnknownBound) {
		t.Errorf("err = %v, want ErrUnknownBound", err)
	}
	if _, err := eng.SumRate(MABC, Inner, Scenario{PowerDB: math.Inf(1)}); err == nil {
		t.Error("want error for broken scenario")
	}
}

func TestRateRegionFacade(t *testing.T) {
	eng := NewEngine()
	ctx := context.Background()
	r, err := eng.Region(ctx, TDBC, Inner, fig4(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Vertices()) < 3 {
		t.Fatalf("region too degenerate: %v", r.Vertices())
	}
	if !r.Contains(RatePoint{}) {
		t.Error("region must contain the origin")
	}
	if r.MaxRa() <= 0 || r.MaxRb() <= 0 || r.MaxSumRate() <= 0 || r.Area() <= 0 {
		t.Error("region summaries must be positive")
	}
	if r.MaxSumRate() > r.MaxRa()+r.MaxRb()+1e-9 {
		t.Error("sum rate exceeds MaxRa+MaxRb")
	}
	rb, ok := r.MaxRbAt(0)
	if !ok || math.Abs(rb-r.MaxRb()) > 1e-6 {
		t.Errorf("MaxRbAt(0) = (%v, %v), want (%v, true)", rb, ok, r.MaxRb())
	}
	if _, ok := r.MaxRbAt(r.MaxRa() + 1); ok {
		t.Error("MaxRbAt beyond the region should report false")
	}
	if _, err := eng.Region(ctx, Protocol(99), Inner, fig4(0)); err == nil {
		t.Error("want error for unknown protocol")
	}
	if _, err := eng.Region(ctx, MABC, Bound(99), fig4(0)); err == nil {
		t.Error("want error for unknown bound")
	}
}

func TestFeasibleFacade(t *testing.T) {
	eng := NewEngine()
	s := fig4(10)
	opt, err := eng.SumRate(HBC, Inner, s)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := eng.Feasible(HBC, Inner, s, opt.Point)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("optimal point must be feasible")
	}
	ok, err = eng.Feasible(HBC, Inner, s, RatePoint{Ra: opt.Point.Ra * 2, Rb: opt.Point.Rb * 2})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("doubled point must be infeasible")
	}
	if _, err := eng.Feasible(Protocol(99), Inner, s, RatePoint{}); err == nil {
		t.Error("want error for unknown protocol")
	}
	if _, err := eng.Feasible(MABC, Bound(99), s, RatePoint{}); err == nil {
		t.Error("want error for unknown bound")
	}
}

func TestRelayPlacementFacade(t *testing.T) {
	rp := RelayPlacement{Pos: 0.5, Exponent: 3}
	s, err := rp.Scenario(15)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.GabDB) > 1e-9 {
		t.Errorf("GabDB = %v, want 0", s.GabDB)
	}
	if math.Abs(s.GarDB-s.GbrDB) > 1e-9 {
		t.Errorf("midpoint gains differ: %v vs %v", s.GarDB, s.GbrDB)
	}
	// 0.5^-3 = 8 -> ~9.03 dB.
	if math.Abs(s.GarDB-9.0309) > 0.01 {
		t.Errorf("GarDB = %v, want ~9.03", s.GarDB)
	}
	if _, err := (RelayPlacement{Pos: 1.5}).Scenario(10); err == nil {
		t.Error("want error for off-segment relay")
	}
	// Fig 3's strict finding: at this placement HBC's inner sum rate beats
	// both MABC and TDBC, not just matches the better of them.
	s, err = RelayPlacement{Pos: 0.31, Exponent: 3}.Scenario(15)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	sums := map[Protocol]float64{}
	for _, p := range []Protocol{HBC, MABC, TDBC} {
		res, err := eng.SumRate(p, Inner, s)
		if err != nil {
			t.Fatal(err)
		}
		sums[p] = res.Sum
	}
	if sums[HBC] <= sums[MABC] || sums[HBC] <= sums[TDBC] {
		t.Errorf("pos 0.31 at 15 dB: HBC %v not strictly above MABC %v and TDBC %v", sums[HBC], sums[MABC], sums[TDBC])
	}
}

func TestHBCBeyondOuterBoundsFacade(t *testing.T) {
	eng := NewEngine()
	pts, err := HBCBeyondOuterBounds(fig4(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("expected escape points at P = 10 dB (the paper's finding)")
	}
	// Every returned point is achievable for HBC and infeasible for both
	// outer bounds.
	for _, pt := range pts[:min(len(pts), 5)] {
		okHBC, err := eng.Feasible(HBC, Inner, fig4(10), pt)
		if err != nil {
			t.Fatal(err)
		}
		if !okHBC {
			t.Errorf("escape point %+v not HBC-achievable", pt)
		}
		okM, err := eng.Feasible(MABC, Outer, fig4(10), pt)
		if err != nil {
			t.Fatal(err)
		}
		okT, err := eng.Feasible(TDBC, Outer, fig4(10), pt)
		if err != nil {
			t.Fatal(err)
		}
		if okM || okT {
			t.Errorf("escape point %+v inside an outer bound (MABC=%v TDBC=%v)", pt, okM, okT)
		}
	}
}

func TestSimulateFadingFacade(t *testing.T) {
	eng := NewEngine()
	ctx := context.Background()
	res, err := eng.Simulate(ctx, SimSpec{
		Fading: &FadingSpec{Scenario: fig4(5), Target: RatePoint{Ra: 0.3, Rb: 0.3}},
		Trials: 300,
		Seed:   42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 300 {
		t.Errorf("Trials = %d, want 300", res.Trials)
	}
	stats := res.Fading
	if len(stats) != 3 {
		t.Fatalf("default protocols: got %d stats", len(stats))
	}
	for p, st := range stats {
		if st.MeanOptSumRate <= 0 {
			t.Errorf("%v: non-positive mean sum rate", p)
		}
		if st.OutageProb < 0 || st.OutageProb > 1 {
			t.Errorf("%v: outage %v out of range", p, st.OutageProb)
		}
	}
	if stats[HBC].MeanOptSumRate < stats[MABC].MeanOptSumRate-1e-9 {
		t.Error("HBC fading mean below MABC")
	}
	if _, err := eng.Simulate(ctx, SimSpec{Fading: &FadingSpec{Scenario: fig4(5), Protocols: []Protocol{Protocol(99)}}}); err == nil {
		t.Error("want error for unknown protocol")
	}
}

func TestSimulateBitTrueTDBCFacade(t *testing.T) {
	eng := NewEngine()
	ctx := context.Background()
	res, err := eng.Simulate(ctx, SimSpec{
		BitTrueTDBC: &BitTrueTDBCSpec{
			Links:       ErasureLinks{EpsAR: 0.1, EpsBR: 0.1, EpsAB: 0.5},
			Rates:       RatePoint{Ra: 0.15, Rb: 0.15},
			BlockLength: 1500,
		},
		Trials:  10,
		Seed:    7,
		Workers: 2, // exercises the facade plumb-through deterministically
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BitTrue.SuccessProb < 0.8 {
		t.Errorf("success %v, want >= 0.8 for comfortable rates", res.BitTrue.SuccessProb)
	}
	if _, err := eng.Simulate(ctx, SimSpec{
		BitTrueTDBC: &BitTrueTDBCSpec{Links: ErasureLinks{EpsAR: 2}, Rates: RatePoint{Ra: 0.1, Rb: 0.1}, BlockLength: 100},
		Trials:      2,
		Seed:        1,
	}); err == nil {
		t.Error("want error for invalid links")
	}
	// The erasure optimum is consistent with the simulator's own bound.
	opt, err := OptimalTDBCErasureRates(ErasureLinks{EpsAR: 0.2, EpsBR: 0.1, EpsAB: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Sum <= 0 || len(opt.Durations) != 3 {
		t.Errorf("erasure optimum implausible: %+v", opt)
	}
	if _, err := OptimalTDBCErasureRates(ErasureLinks{EpsAR: -1}); err == nil {
		t.Error("want error for invalid links")
	}
}

func TestExperimentFacade(t *testing.T) {
	ids := Experiments()
	if len(ids) < 10 {
		t.Fatalf("only %d experiments registered: %v", len(ids), ids)
	}
	desc, err := DescribeExperiment("fig3")
	if err != nil {
		t.Fatal(err)
	}
	if desc == "" {
		t.Error("empty description")
	}
	if _, err := DescribeExperiment("nope"); err == nil {
		t.Error("want error for unknown experiment")
	}
	eng := NewEngine()
	var sb strings.Builder
	if err := eng.RunExperiment(context.Background(), "crossover", true, 1, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== crossover ==", "Findings:", "legend:"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
	if err := eng.RunExperiment(context.Background(), "nope", true, 1, &sb); err == nil {
		t.Error("want error for unknown experiment")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestBaselineFacades(t *testing.T) {
	s := fig4(10)
	af, err := AmplifyForwardSumRate(s)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := FullDuplexSumRate(s)
	if err != nil {
		t.Fatal(err)
	}
	hbc, err := NewEngine().SumRate(HBC, Inner, s)
	if err != nil {
		t.Fatal(err)
	}
	if !(af.Sum > 0 && fd.Sum > 0) {
		t.Fatalf("baseline sums: AF %v, FD %v", af.Sum, fd.Sum)
	}
	// Sandwich: AF (no decoding, half duplex) <= HBC <= full duplex.
	if hbc.Sum > fd.Sum+1e-9 {
		t.Errorf("HBC %v exceeds the full-duplex ceiling %v", hbc.Sum, fd.Sum)
	}
	if af.Sum > fd.Sum+1e-9 {
		t.Errorf("AF %v exceeds the full-duplex ceiling %v", af.Sum, fd.Sum)
	}
	pen, err := HalfDuplexPenalty(HBC, s)
	if err != nil {
		t.Fatal(err)
	}
	if pen <= 0 || pen > 1+1e-9 {
		t.Errorf("penalty %v out of (0,1]", pen)
	}
	if _, err := AmplifyForwardSumRate(Scenario{PowerDB: math.Inf(1)}); err == nil {
		t.Error("want error for broken scenario")
	}
	if _, err := FullDuplexSumRate(Scenario{PowerDB: math.Inf(1)}); err == nil {
		t.Error("want error for broken scenario")
	}
	if _, err := HalfDuplexPenalty(Protocol(99), s); err == nil {
		t.Error("want error for unknown protocol")
	}
}

func TestComputeForwardMABCFacade(t *testing.T) {
	links := MABCComputeForwardLinks{EpsMAC: 0.2, EpsRA: 0.15, EpsRB: 0.1}
	bound, durations := links.ComputeForwardBound()
	if bound <= 0 || len(durations) != 2 {
		t.Fatalf("bound %v durations %v", bound, durations)
	}
	eng := NewEngine()
	ctx := context.Background()
	run := func(rate float64) (BitTrueResult, error) {
		res, err := eng.Simulate(ctx, SimSpec{
			BitTrueMABC: &BitTrueMABCSpec{Links: links, Rate: rate, BlockLength: 2000},
			Trials:      12,
			Seed:        3,
			Workers:     2, // pinned so results do not depend on GOMAXPROCS
		})
		if err != nil {
			return BitTrueResult{}, err
		}
		return *res.BitTrue, nil
	}
	res, err := run(bound * 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if res.SuccessProb < 0.9 {
		t.Errorf("success %v at 80%% of the bound", res.SuccessProb)
	}
	fail, err := run(bound * 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if fail.SuccessProb > 0.1 {
		t.Errorf("success %v at 120%% of the bound, want ~0", fail.SuccessProb)
	}
	if _, err := eng.Simulate(ctx, SimSpec{
		BitTrueMABC: &BitTrueMABCSpec{Links: MABCComputeForwardLinks{EpsMAC: -1}, Rate: 0.1, BlockLength: 100},
		Trials:      2,
		Seed:        1,
	}); err == nil {
		t.Error("want error for invalid links")
	}
}
