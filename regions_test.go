package bicoop_test

// regions_test.go — behaviour of the public region-batch and campaign APIs:
// validation sentinels, streaming order, engine worker-default plumbing,
// and the cancellation contract (sub-second stop, no goroutine leaks) that
// `bcc region` relies on for Ctrl-C.

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"bicoop"
)

func fig4sc(pdb float64) bicoop.Scenario {
	return bicoop.Scenario{PowerDB: pdb, GabDB: -7, GarDB: 0, GbrDB: 5}
}

// TestRegionBatchStreamsInOrder pins enumeration order (scenario outer,
// curve inner) and the spec echo fields.
func TestRegionBatchStreamsInOrder(t *testing.T) {
	spec := bicoop.RegionBatchSpec{
		Scenarios: []bicoop.Scenario{fig4sc(0), fig4sc(10)},
		Curves: []bicoop.RegionCurve{
			{Protocol: bicoop.MABC, Bound: bicoop.Inner},
			{Protocol: bicoop.TDBC, Bound: bicoop.Inner},
			{Protocol: bicoop.TDBC, Bound: bicoop.Outer},
		},
		Workers: 4,
	}
	if got, want := spec.Size(), 6; got != want {
		t.Fatalf("Size = %d, want %d", got, want)
	}
	i := 0
	err := bicoop.NewEngine().RegionBatch(context.Background(), spec, func(pt bicoop.RegionBatchPoint) error {
		wantScen, wantCurve := i/len(spec.Curves), i%len(spec.Curves)
		if pt.ScenarioIdx != wantScen || pt.CurveIdx != wantCurve {
			t.Errorf("curve %d arrived as (%d, %d), want (%d, %d)", i, pt.ScenarioIdx, pt.CurveIdx, wantScen, wantCurve)
		}
		if pt.Scenario != spec.Scenarios[wantScen] || pt.Curve != spec.Curves[wantCurve] {
			t.Errorf("curve %d echo fields %+v / %+v do not match the spec", i, pt.Scenario, pt.Curve)
		}
		if pt.Region.MaxRa() <= 0 || pt.Region.MaxRb() <= 0 {
			t.Errorf("curve %d degenerate region (maxRa %g, maxRb %g)", i, pt.Region.MaxRa(), pt.Region.MaxRb())
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != spec.Size() {
		t.Fatalf("streamed %d curves, want %d", i, spec.Size())
	}
}

// TestRegionValidation covers the typed sentinels of the region APIs.
func TestRegionValidation(t *testing.T) {
	eng := bicoop.NewEngine()
	ctx := context.Background()
	ok := bicoop.RegionBatchSpec{
		Scenarios: []bicoop.Scenario{fig4sc(10)},
		Curves:    []bicoop.RegionCurve{{Protocol: bicoop.MABC, Bound: bicoop.Inner}},
	}

	if err := eng.RegionBatch(ctx, ok, nil); !errors.Is(err, bicoop.ErrInvalidRegionSpec) {
		t.Errorf("nil yield err = %v, want ErrInvalidRegionSpec", err)
	}
	empty := ok
	empty.Curves = nil
	if err := eng.RegionBatch(ctx, empty, func(bicoop.RegionBatchPoint) error { return nil }); !errors.Is(err, bicoop.ErrInvalidRegionSpec) {
		t.Errorf("empty curves err = %v, want ErrInvalidRegionSpec", err)
	}
	degenerate := ok
	degenerate.Angles = 1
	if err := eng.RegionBatch(ctx, degenerate, func(bicoop.RegionBatchPoint) error { return nil }); !errors.Is(err, bicoop.ErrInvalidRegionSpec) {
		t.Errorf("angles=1 err = %v, want ErrInvalidRegionSpec", err)
	}
	if err := degenerate.Validate(); !errors.Is(err, bicoop.ErrInvalidRegionSpec) {
		t.Errorf("angles=1 Validate err = %v, want ErrInvalidRegionSpec at admission", err)
	}
	// Direction counts whose point buffer cannot be sized must fail
	// validation, not panic inside the batch's allocation.
	wide := ok
	wide.Scenarios = []bicoop.Scenario{fig4sc(0), fig4sc(5), fig4sc(10)}
	wide.Curves = allBounds()
	for _, spec := range []bicoop.RegionBatchSpec{ok, wide} {
		for _, angles := range []int{1 << 62, math.MaxInt / 16, math.MaxInt - 1, math.MaxInt} {
			huge := spec
			huge.Angles = angles
			if err := eng.RegionBatch(ctx, huge, func(bicoop.RegionBatchPoint) error { return nil }); !errors.Is(err, bicoop.ErrInvalidRegionSpec) {
				t.Errorf("%d curves, angles=%d: err = %v, want ErrInvalidRegionSpec", huge.Size(), angles, err)
			}
		}
	}
	// 2^40 directions fit an int but not in memory: admission must reject
	// them, since the batch's allocation would die unrecoverably.
	oom := ok
	oom.Angles = 1 << 40
	if err := oom.Validate(); !errors.Is(err, bicoop.ErrInvalidRegionSpec) {
		t.Errorf("angles=2^40 Validate err = %v, want ErrInvalidRegionSpec at admission", err)
	}
	nan := ok
	nan.Scenarios = []bicoop.Scenario{{PowerDB: math.NaN()}}
	if err := eng.RegionBatch(ctx, nan, func(bicoop.RegionBatchPoint) error { return nil }); !errors.Is(err, bicoop.ErrInvalidScenario) {
		t.Errorf("NaN scenario err = %v, want ErrInvalidScenario", err)
	}
	badEnum := ok
	badEnum.Curves = []bicoop.RegionCurve{{Protocol: bicoop.Protocol(99), Bound: bicoop.Inner}}
	if err := eng.RegionBatch(ctx, badEnum, func(bicoop.RegionBatchPoint) error { return nil }); !errors.Is(err, bicoop.ErrUnknownProtocol) {
		t.Errorf("bad protocol err = %v, want ErrUnknownProtocol", err)
	}

	sentinel := errors.New("stop")
	n := 0
	spec := ok
	spec.Scenarios = []bicoop.Scenario{fig4sc(0), fig4sc(5), fig4sc(10)}
	if err := eng.RegionBatch(ctx, spec, func(bicoop.RegionBatchPoint) error {
		n++
		return sentinel
	}); !errors.Is(err, sentinel) || n != 1 {
		t.Errorf("yield error: err = %v after %d curves, want sentinel after 1", err, n)
	}
}

// TestRegionCancellation proves the region APIs return sub-second on
// cancellation — Ctrl-C in `bcc region` — with no leaked goroutines. One
// curve is a handful of LP solves, so the long run is a batch of many
// curves, cancelled from inside its first yield: a batch that ignored the
// cancel would run every curve and return nil. Engine.Region, a one-curve
// batch, must refuse an already cancelled context.
func TestRegionCancellation(t *testing.T) {
	eng := bicoop.NewEngine()
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := bicoop.RegionBatchSpec{
		Curves:  []bicoop.RegionCurve{{Protocol: bicoop.HBC, Bound: bicoop.Inner}},
		Workers: 2,
	}
	// Seconds of LP solves if cancellation were ignored.
	for i := 0; i < 50_000; i++ {
		spec.Scenarios = append(spec.Scenarios, fig4sc(10+float64(i%100)/10))
	}
	var cancelled time.Time
	yields := 0
	err := eng.RegionBatch(ctx, spec, func(bicoop.RegionBatchPoint) error {
		yields++
		if yields == 1 {
			cancelled = time.Now()
			cancel()
		}
		return nil
	})
	elapsed := time.Since(cancelled)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > time.Second {
		t.Fatalf("cancelled RegionBatch took %v to return, want sub-second", elapsed)
	}
	if yields >= spec.Size() {
		t.Errorf("yielded all %d curves after the cancel", yields)
	}
	start := time.Now()
	if _, err := eng.Region(ctx, bicoop.HBC, bicoop.Inner, fig4sc(10)); !errors.Is(err, context.Canceled) {
		t.Errorf("Region on a cancelled context: err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("Region on a cancelled context took %v, want sub-second", elapsed)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, g)
	}
}

// TestSimulateBatchStreamsAndValidates covers the campaign API: up-front
// validation with typed sentinels, in-order streaming, and the legacy
// single-run equivalence of each campaign entry.
func TestSimulateBatchStreamsAndValidates(t *testing.T) {
	eng := bicoop.NewEngine()
	ctx := context.Background()

	if _, err := eng.SimulateBatch(ctx, bicoop.CampaignSpec{}, nil); !errors.Is(err, bicoop.ErrInvalidSimSpec) {
		t.Errorf("empty campaign err = %v, want ErrInvalidSimSpec", err)
	}
	bad := bicoop.CampaignSpec{Specs: []bicoop.SimSpec{
		{Fading: &bicoop.FadingSpec{Scenario: fig4sc(5)}, Trials: 10},
		{Trials: 10}, // no simulator selected
	}}
	if _, err := eng.SimulateBatch(ctx, bad, nil); !errors.Is(err, bicoop.ErrInvalidSimSpec) {
		t.Errorf("malformed spec err = %v, want ErrInvalidSimSpec", err)
	}

	specs := []bicoop.SimSpec{
		{Fading: &bicoop.FadingSpec{Scenario: fig4sc(0)}, Trials: 80, Seed: 7},
		{Fading: &bicoop.FadingSpec{Scenario: fig4sc(5)}, Trials: 80, Seed: 8},
		{Fading: &bicoop.FadingSpec{Scenario: fig4sc(10)}, Trials: 80, Seed: 9},
	}
	var order []int
	res, err := eng.SimulateBatch(ctx, bicoop.CampaignSpec{Specs: specs, Workers: 3}, func(i int, r bicoop.SimResult) error {
		order = append(order, i)
		if r.Trials != 80 {
			t.Errorf("spec %d: Trials = %d, want 80", i, r.Trials)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(specs) {
		t.Fatalf("got %d results, want %d", len(res), len(specs))
	}
	for i, want := range []int{0, 1, 2} {
		if order[i] != want {
			t.Fatalf("streaming order %v, want ascending", order)
		}
	}
	// Each campaign entry must equal the same spec run alone with the
	// campaign's inner default (one trial goroutine).
	for i, s := range specs {
		s.Workers = 1
		solo, err := eng.Simulate(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		for p, st := range solo.Fading {
			if res[i].Fading[p] != st {
				t.Errorf("spec %d %v: campaign %+v, solo %+v", i, p, res[i].Fading[p], st)
			}
		}
	}

	// A yield error is returned verbatim.
	sentinel := errors.New("stop")
	if _, err := eng.SimulateBatch(ctx, bicoop.CampaignSpec{Specs: specs}, func(i int, r bicoop.SimResult) error {
		return sentinel
	}); !errors.Is(err, sentinel) {
		t.Errorf("yield error = %v, want sentinel", err)
	}
}

// TestSimulateBatchCancellation proves a cancelled campaign returns the
// contiguous prefix of whole completed runs, promptly, without leaking
// goroutines.
func TestSimulateBatchCancellation(t *testing.T) {
	eng := bicoop.NewEngine()
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	links := bicoop.ErasureLinks{EpsAR: 0.2, EpsBR: 0.1, EpsAB: 0.6}
	var specs []bicoop.SimSpec
	for i := 0; i < 64; i++ {
		specs = append(specs, bicoop.SimSpec{
			BitTrueTDBC: &bicoop.BitTrueTDBCSpec{Links: links, Rates: bicoop.RatePoint{Ra: 0.2, Rb: 0.2}, BlockLength: 1000},
			Trials:      50_000, // hours of work per spec if the cancel were ignored
			Seed:        int64(i),
		})
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := eng.SimulateBatch(ctx, bicoop.CampaignSpec{Specs: specs, Workers: 2}, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("cancelled campaign took %v", elapsed)
	}
	if len(res) >= len(specs) {
		t.Errorf("cancelled campaign returned %d results, want a strict prefix", len(res))
	}
	for i, r := range res {
		if r.Trials != 50_000 {
			t.Errorf("prefix result %d has %d trials — campaigns must return whole runs only", i, r.Trials)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, g)
	}
}
