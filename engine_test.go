package bicoop_test

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"bicoop"
)

// grid builds a small power × direct-gain scenario grid.
func grid(n int) []bicoop.Scenario {
	out := make([]bicoop.Scenario, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, bicoop.Scenario{
			PowerDB: -5 + 25*float64(i)/float64(n),
			GabDB:   -7 + float64(i%5),
			GarDB:   0,
			GbrDB:   5,
		})
	}
	return out
}

func TestSumRateBatchMatchesSumRate(t *testing.T) {
	eng := bicoop.NewEngine()
	scenarios := grid(64)
	for _, p := range bicoop.AllProtocols() {
		for _, b := range []bicoop.Bound{bicoop.Inner, bicoop.Outer} {
			batch, err := eng.SumRateBatch(context.Background(), p, b, scenarios)
			if err != nil {
				t.Fatalf("%v %v: %v", p, b, err)
			}
			if len(batch) != len(scenarios) {
				t.Fatalf("%v %v: got %d results, want %d", p, b, len(batch), len(scenarios))
			}
			for i, s := range scenarios {
				one, err := eng.SumRate(p, b, s)
				if err != nil {
					t.Fatalf("%v %v scenario %d: %v", p, b, i, err)
				}
				if !sameResult(batch[i], one) {
					t.Errorf("%v %v scenario %d: batch %+v, SumRate %+v", p, b, i, batch[i], one)
				}
				var total float64
				for _, d := range batch[i].Durations {
					total += d
				}
				if math.Abs(total-1) > 1e-9 {
					t.Errorf("%v %v scenario %d: durations sum %g", p, b, i, total)
				}
			}
		}
	}
}

func TestEngineValidation(t *testing.T) {
	eng := bicoop.NewEngine()
	ctx := context.Background()
	nanScenario := bicoop.Scenario{PowerDB: math.NaN(), GabDB: -7, GarDB: 0, GbrDB: 5}
	infScenario := bicoop.Scenario{PowerDB: 10, GabDB: math.Inf(1), GarDB: 0, GbrDB: 5}
	good := bicoop.Scenario{PowerDB: 10, GabDB: -7, GarDB: 0, GbrDB: 5}

	for _, s := range []bicoop.Scenario{nanScenario, infScenario} {
		if _, err := eng.SumRate(bicoop.MABC, bicoop.Inner, s); !errors.Is(err, bicoop.ErrInvalidScenario) {
			t.Errorf("SumRate(%+v) err = %v, want ErrInvalidScenario", s, err)
		}
		if _, err := eng.Region(ctx, bicoop.MABC, bicoop.Inner, s); !errors.Is(err, bicoop.ErrInvalidScenario) {
			t.Errorf("Region err = %v, want ErrInvalidScenario", err)
		}
		if _, err := eng.Feasible(bicoop.MABC, bicoop.Inner, s, bicoop.RatePoint{}); !errors.Is(err, bicoop.ErrInvalidScenario) {
			t.Errorf("Feasible err = %v, want ErrInvalidScenario", err)
		}
		if _, err := eng.SumRateBatch(ctx, bicoop.MABC, bicoop.Inner, []bicoop.Scenario{good, s}); !errors.Is(err, bicoop.ErrInvalidScenario) {
			t.Errorf("SumRateBatch err = %v, want ErrInvalidScenario", err)
		}
		if _, err := eng.Simulate(ctx, bicoop.SimSpec{Fading: &bicoop.FadingSpec{Scenario: s}, Trials: 1}); !errors.Is(err, bicoop.ErrInvalidScenario) {
			t.Errorf("Simulate fading err = %v, want ErrInvalidScenario", err)
		}
	}

	if _, err := eng.Feasible(bicoop.MABC, bicoop.Inner, good, bicoop.RatePoint{Ra: math.NaN()}); !errors.Is(err, bicoop.ErrInvalidRates) {
		t.Errorf("Feasible NaN rate err = %v, want ErrInvalidRates", err)
	}

	// Trial and block-length validation.
	if _, err := eng.Simulate(ctx, bicoop.SimSpec{Fading: &bicoop.FadingSpec{Scenario: good}, Trials: -1}); !errors.Is(err, bicoop.ErrInvalidTrials) {
		t.Errorf("negative trials err = %v, want ErrInvalidTrials", err)
	}
	tdbc := &bicoop.BitTrueTDBCSpec{
		Links:       bicoop.ErasureLinks{EpsAR: 0.2, EpsBR: 0.1, EpsAB: 0.6},
		Rates:       bicoop.RatePoint{Ra: 0.1, Rb: 0.1},
		BlockLength: 200,
	}
	if _, err := eng.Simulate(ctx, bicoop.SimSpec{BitTrueTDBC: tdbc}); !errors.Is(err, bicoop.ErrInvalidTrials) {
		t.Errorf("zero bit-true trials err = %v, want ErrInvalidTrials", err)
	}
	short := *tdbc
	short.BlockLength = -4
	if _, err := eng.Simulate(ctx, bicoop.SimSpec{BitTrueTDBC: &short, Trials: 2}); !errors.Is(err, bicoop.ErrInvalidBlockLength) {
		t.Errorf("negative block length err = %v, want ErrInvalidBlockLength", err)
	}
	bad := *tdbc
	bad.Rates = bicoop.RatePoint{Ra: math.NaN(), Rb: 0.1}
	if _, err := eng.Simulate(ctx, bicoop.SimSpec{BitTrueTDBC: &bad, Trials: 2}); !errors.Is(err, bicoop.ErrInvalidRates) {
		t.Errorf("NaN bit-true rate err = %v, want ErrInvalidRates", err)
	}

	// Spec shape validation.
	if _, err := eng.Simulate(ctx, bicoop.SimSpec{Trials: 10}); !errors.Is(err, bicoop.ErrInvalidSimSpec) {
		t.Errorf("empty spec err = %v, want ErrInvalidSimSpec", err)
	}
	if _, err := eng.Simulate(ctx, bicoop.SimSpec{
		Fading:      &bicoop.FadingSpec{Scenario: good},
		BitTrueTDBC: tdbc,
		Trials:      10,
	}); !errors.Is(err, bicoop.ErrInvalidSimSpec) {
		t.Errorf("double spec err = %v, want ErrInvalidSimSpec", err)
	}
	if err := eng.Sweep(ctx, bicoop.SweepSpec{}, nil); !errors.Is(err, bicoop.ErrInvalidSweepSpec) {
		t.Errorf("nil yield err = %v, want ErrInvalidSweepSpec", err)
	}
}

// TestSimulatePinnedDurationsValidation pins the admission check on bit-true
// phase splits: a pinned Durations slice of the wrong count, with a
// non-finite entry, an entry outside [0,1] or a sum away from 1 is
// ErrInvalidSimSpec from CampaignSpec.Validate, Simulate and SimulateBatch
// alike, before any worker is built (some of these used to panic sizing a
// negative phase, one ran with n1+n2 > n). So is a spec that breaks one of
// the other bit-true rules only the simulators used to check (the rows
// from "MABC rate 0" on), which passed admission and then failed the
// campaign's first run.
func TestSimulatePinnedDurationsValidation(t *testing.T) {
	eng := bicoop.NewEngine()
	ctx := context.Background()
	tdbc := func(d ...float64) bicoop.SimSpec {
		return bicoop.SimSpec{Trials: 2, Seed: 1, BitTrueTDBC: &bicoop.BitTrueTDBCSpec{
			Links:       bicoop.ErasureLinks{EpsAR: 0.2, EpsBR: 0.1, EpsAB: 0.6},
			Rates:       bicoop.RatePoint{Ra: 0.1, Rb: 0.1},
			Durations:   d,
			BlockLength: 300,
		}}
	}
	mabc := func(d ...float64) bicoop.SimSpec {
		return bicoop.SimSpec{Trials: 2, Seed: 1, BitTrueMABC: &bicoop.BitTrueMABCSpec{
			Links:       bicoop.MABCComputeForwardLinks{EpsMAC: 0.2, EpsRA: 0.15, EpsRB: 0.1},
			Rate:        0.1,
			Durations:   d,
			BlockLength: 300,
		}}
	}
	bad := map[string]bicoop.SimSpec{
		"TDBC two entries":     tdbc(0.5, 0.5),
		"TDBC negative":        tdbc(-0.5, 0.5, 1),
		"TDBC sum 1.4":         tdbc(0.7, 0.7, 0),
		"TDBC NaN":             tdbc(math.NaN(), 0.5, 0.5),
		"TDBC +Inf":            tdbc(math.Inf(1), 0, 0),
		"TDBC sum off by 1e-8": tdbc(0.3, 0.3, 0.4+1e-8),
		"MABC one entry":       mabc(1),
		"MABC above 1":         mabc(1.5, -0.5),
		"MABC sum 0.9":         mabc(0.45, 0.45),
		"MABC empty":           mabc([]float64{}...),
	}
	zeroRate := mabc()
	zeroRate.BitTrueMABC.Rate = 0
	bad["MABC rate 0"] = zeroRate
	zeroRates := tdbc(0.3, 0.3, 0.4)
	zeroRates.BitTrueTDBC.Rates = bicoop.RatePoint{}
	bad["TDBC rates 0, pinned durations"] = zeroRates
	oneUse := tdbc()
	oneUse.BitTrueTDBC.Rates, oneUse.BitTrueTDBC.BlockLength = bicoop.RatePoint{Ra: 0.3, Rb: 0.3}, 1
	bad["TDBC block length 1"] = oneUse
	badAR := tdbc()
	badAR.BitTrueTDBC.Links.EpsAR = 2
	bad["TDBC EpsAR 2"] = badAR
	badMAC := mabc()
	badMAC.BitTrueMABC.Links.EpsMAC = -0.5
	bad["MABC EpsMAC -0.5"] = badMAC
	for name, spec := range bad {
		if err := validateSim(spec); !errors.Is(err, bicoop.ErrInvalidSimSpec) {
			t.Errorf("%s: CampaignSpec.Validate err = %v, want ErrInvalidSimSpec", name, err)
		}
		if _, err := eng.Simulate(ctx, spec); !errors.Is(err, bicoop.ErrInvalidSimSpec) {
			t.Errorf("%s: Simulate err = %v, want ErrInvalidSimSpec", name, err)
		}
		if _, err := eng.SimulateBatch(ctx, bicoop.CampaignSpec{Specs: []bicoop.SimSpec{spec}}, nil); !errors.Is(err, bicoop.ErrInvalidSimSpec) {
			t.Errorf("%s: SimulateBatch err = %v, want ErrInvalidSimSpec", name, err)
		}
	}
	for name, spec := range map[string]bicoop.SimSpec{
		"TDBC exact":          tdbc(0.3, 0.3, 0.4),
		"TDBC within 1e-9":    tdbc(0.3, 0.3, 0.4+5e-10),
		"TDBC one idle phase": tdbc(0.5, 0.5, 0),
		"MABC exact":          mabc(0.45, 0.55),
	} {
		if _, err := eng.Simulate(ctx, spec); err != nil {
			t.Errorf("%s: Simulate err = %v, want nil", name, err)
		}
	}
}

func TestSimulateProgress(t *testing.T) {
	eng := bicoop.NewEngine()
	var mu sync.Mutex
	var last int
	calls := 0
	res, err := eng.Simulate(context.Background(), bicoop.SimSpec{
		Fading: &bicoop.FadingSpec{Scenario: bicoop.Scenario{PowerDB: 5, GabDB: -7, GarDB: 0, GbrDB: 5}},
		Trials: 500,
		Seed:   1,
		Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if total != 500 {
				t.Errorf("total = %d, want 500", total)
			}
			if done < last {
				t.Errorf("done went backwards: %d after %d", done, last)
			}
			last = done
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls == 0 || last != 500 {
		t.Errorf("progress: %d calls, final done = %d, want final 500", calls, last)
	}
	if res.Trials != 500 {
		t.Errorf("Trials = %d, want 500", res.Trials)
	}
}

// TestSimulateCancellation proves a cancelled Simulate returns promptly —
// well under the shard granularity (one worker's full trial share, which
// would take minutes here) — with partial counts and no leaked goroutines.
func TestSimulateCancellation(t *testing.T) {
	eng := bicoop.NewEngine()
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := eng.Simulate(ctx, bicoop.SimSpec{
		BitTrueTDBC: &bicoop.BitTrueTDBCSpec{
			Links:       bicoop.ErasureLinks{EpsAR: 0.2, EpsBR: 0.1, EpsAB: 0.6},
			Rates:       bicoop.RatePoint{Ra: 0.2, Rb: 0.2},
			BlockLength: 1000,
		},
		Trials:  1_000_000, // hours of work if the cancel were ignored
		Seed:    1,
		Workers: 2,
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Generous bound: a worker notices the flag within one ~2ms block; the
	// limit only has to rule out "ran to completion".
	if elapsed > 10*time.Second {
		t.Fatalf("cancelled Simulate took %v", elapsed)
	}
	if res.Trials <= 0 || res.Trials >= 1_000_000 {
		t.Errorf("partial Trials = %d, want strictly between 0 and the request", res.Trials)
	}
	if res.BitTrue == nil {
		t.Fatal("partial result missing BitTrue counts")
	}
	// The worker pool must have drained: no goroutines may outlive the call.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, g)
	}
}

// TestCancellationWithCause pins the error contract under
// context.WithCancelCause: the returned error must satisfy both
// errors.Is(err, context.Canceled) — the documented cancellation check —
// and errors.Is(err, cause).
func TestCancellationWithCause(t *testing.T) {
	eng := bicoop.NewEngine()
	cause := errors.New("service shutting down")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)

	_, err := eng.Simulate(ctx, bicoop.SimSpec{
		Fading: &bicoop.FadingSpec{Scenario: bicoop.Scenario{PowerDB: 5, GabDB: -7, GarDB: 0, GbrDB: 5}},
		Trials: 100_000,
		Seed:   1,
	})
	if !errors.Is(err, context.Canceled) || !errors.Is(err, cause) {
		t.Errorf("Simulate err = %v, want both context.Canceled and the cause", err)
	}

	_, err = eng.SumRateBatch(ctx, bicoop.MABC, bicoop.Inner, grid(8))
	if !errors.Is(err, context.Canceled) || !errors.Is(err, cause) {
		t.Errorf("SumRateBatch err = %v, want both context.Canceled and the cause", err)
	}

	err = eng.Sweep(ctx, bicoop.SweepSpec{Base: bicoop.Scenario{PowerDB: 10, GabDB: -7, GarDB: 0, GbrDB: 5}},
		func(bicoop.SweepPoint) error { return nil })
	if !errors.Is(err, context.Canceled) || !errors.Is(err, cause) {
		t.Errorf("Sweep err = %v, want both context.Canceled and the cause", err)
	}
}

func TestSweepGrid(t *testing.T) {
	eng := bicoop.NewEngine()
	spec := bicoop.SweepSpec{
		Protocols: []bicoop.Protocol{bicoop.MABC, bicoop.TDBC},
		PowersDB:  []float64{0, 10},
		Placements: []bicoop.RelayPlacement{
			{Pos: 0.3, Exponent: 3},
			{Pos: 0.5, Exponent: 3},
			{Pos: 0.7, Exponent: 3},
		},
		Erasures: []bicoop.ErasureLinks{
			{EpsAR: 0.2, EpsBR: 0.1, EpsAB: 0.6},
		},
	}
	want := 2*3*2 + 1
	if got := spec.Size(); got != want {
		t.Fatalf("Size = %d, want %d", got, want)
	}
	pts, err := eng.SweepAll(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != want {
		t.Fatalf("got %d points, want %d", len(pts), want)
	}
	for i, pt := range pts {
		if pt.Index != i {
			t.Errorf("point %d has Index %d", i, pt.Index)
		}
	}
	// Enumeration order: power outer, placement middle, protocol inner.
	if pts[0].PowerDB != 0 || pts[0].Protocol != bicoop.MABC || pts[0].Placement.Pos != 0.3 {
		t.Errorf("first point out of order: %+v", pts[0])
	}
	if pts[1].Protocol != bicoop.TDBC {
		t.Errorf("second point protocol = %v, want TDBC", pts[1].Protocol)
	}
	if pts[2].Placement.Pos != 0.5 {
		t.Errorf("third point placement = %v, want 0.5", pts[2].Placement.Pos)
	}
	// Gaussian points must match SumRate on the same scenario.
	for _, pt := range pts[:want-1] {
		one, err := eng.SumRate(pt.Protocol, pt.Bound, pt.Scenario)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pt.Result.Sum-one.Sum) > 1e-9 {
			t.Errorf("point %d: sweep %g vs SumRate %g", pt.Index, pt.Result.Sum, one.Sum)
		}
	}
	// The erasure point is the Theorem 3 erasure optimum.
	last := pts[want-1]
	if last.Erasure == nil || last.Protocol != bicoop.TDBC || last.Bound != bicoop.Inner {
		t.Fatalf("erasure point malformed: %+v", last)
	}
	opt, err := bicoop.OptimalTDBCErasureRates(*last.Erasure)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(last.Result.Sum-opt.Sum) > 1e-9 {
		t.Errorf("erasure point sum %g, want %g", last.Result.Sum, opt.Sum)
	}

	// An erasures-only spec must not evaluate the (zero-value) Base
	// scenario: the Gaussian grid is skipped entirely.
	onlyErasures := bicoop.SweepSpec{Erasures: spec.Erasures}
	if got := onlyErasures.Size(); got != 1 {
		t.Errorf("erasures-only Size = %d, want 1", got)
	}
	epts, err := eng.SweepAll(context.Background(), onlyErasures)
	if err != nil {
		t.Fatal(err)
	}
	if len(epts) != 1 || epts[0].Erasure == nil || epts[0].Index != 0 {
		t.Errorf("erasures-only sweep yielded %+v, want exactly the one erasure point", epts)
	}

	// A yield error stops the sweep immediately.
	sentinel := errors.New("stop here")
	n := 0
	err = eng.Sweep(context.Background(), spec, func(bicoop.SweepPoint) error {
		n++
		if n == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) || n != 3 {
		t.Errorf("yield stop: err = %v after %d points, want sentinel after 3", err, n)
	}

	// Cancellation stops the sweep with the context error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := eng.Sweep(ctx, spec, func(bicoop.SweepPoint) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled sweep err = %v, want context.Canceled", err)
	}
}

// TestEngineConcurrent exercises one Engine from many goroutines mixing
// every method; run with -race (CI does) to prove the pool and caches are
// goroutine-safe.
func TestEngineConcurrent(t *testing.T) {
	eng := bicoop.NewEngine()
	s := bicoop.Scenario{PowerDB: 10, GabDB: -7, GarDB: 0, GbrDB: 5}
	ref, err := eng.SumRate(bicoop.HBC, bicoop.Inner, s)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := grid(32)
	refBatch, err := eng.SumRateBatch(context.Background(), bicoop.TDBC, bicoop.Inner, scenarios)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch (g + i) % 4 {
				case 0:
					got, err := eng.SumRate(bicoop.HBC, bicoop.Inner, s)
					if err != nil {
						errCh <- err
						return
					}
					if math.Abs(got.Sum-ref.Sum) > 1e-12 {
						errCh <- errors.New("concurrent SumRate diverged")
						return
					}
				case 1:
					got, err := eng.SumRateBatch(context.Background(), bicoop.TDBC, bicoop.Inner, scenarios)
					if err != nil {
						errCh <- err
						return
					}
					for j := range got {
						if math.Abs(got[j].Sum-refBatch[j].Sum) > 1e-12 {
							errCh <- errors.New("concurrent SumRateBatch diverged")
							return
						}
					}
				case 2:
					if _, err := eng.Feasible(bicoop.MABC, bicoop.Inner, s, bicoop.RatePoint{Ra: 1, Rb: 1}); err != nil {
						errCh <- err
						return
					}
				default:
					if _, err := eng.Region(context.Background(), bicoop.TDBC, bicoop.Inner, s); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// allocatedBy returns the bytes the process allocated while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSweepScenarioCap pins the grid admission cap: a spec of exactly
// MaxSweepScenarios power × placement pairs validates, one more power is
// ErrInvalidSweepSpec, and a 20000 × 20000 grid, which used to be resolved
// in full before the first point (about 19 GB), is rejected by Sweep
// without a large allocation.
func TestSweepScenarioCap(t *testing.T) {
	axes := func(powers, places int) bicoop.SweepSpec {
		spec := bicoop.SweepSpec{PowersDB: make([]float64, powers), Placements: make([]bicoop.RelayPlacement, places)}
		for i := range spec.Placements {
			spec.Placements[i] = bicoop.RelayPlacement{Pos: 0.5, Exponent: 3}
		}
		return spec
	}
	if err := axes(bicoop.MaxSweepScenarios/512, 512).Validate(); err != nil {
		t.Errorf("grid at the cap: %v", err)
	}
	if err := axes(bicoop.MaxSweepScenarios/512+1, 512).Validate(); !errors.Is(err, bicoop.ErrInvalidSweepSpec) {
		t.Errorf("grid one power over the cap: err = %v, want ErrInvalidSweepSpec", err)
	}
	if err := axes(bicoop.MaxSweepScenarios+1, 0).Validate(); !errors.Is(err, bicoop.ErrInvalidSweepSpec) {
		t.Errorf("power axis over the cap: err = %v, want ErrInvalidSweepSpec", err)
	}
	huge := axes(20000, 20000)
	var err error
	n := allocatedBy(func() {
		err = bicoop.NewEngine().Sweep(context.Background(), huge, func(bicoop.SweepPoint) error { return nil })
	})
	if !errors.Is(err, bicoop.ErrInvalidSweepSpec) {
		t.Fatalf("20000 x 20000 grid: err = %v, want ErrInvalidSweepSpec", err)
	}
	if n > 16<<20 {
		t.Errorf("rejecting a 20000 x 20000 grid allocated %d bytes", n)
	}
}

// validateSim runs a SimSpec through campaign admission.
func validateSim(spec bicoop.SimSpec) error {
	return bicoop.CampaignSpec{Specs: []bicoop.SimSpec{spec}}.Validate()
}

// TestBitTrueSpecCaps pins the bit-true admission bounds that keep a
// worker's memory bounded: a block length above the cap and a rate above 1
// are rejected up front, a million-symbol block without a large allocation.
func TestBitTrueSpecCaps(t *testing.T) {
	ctx := context.Background()
	eng := bicoop.NewEngine()
	tdbc := bicoop.BitTrueTDBCSpec{
		Links: bicoop.ErasureLinks{EpsAR: 0.2, EpsBR: 0.1, EpsAB: 0.6},
		Rates: bicoop.RatePoint{Ra: 0.1, Rb: 0.1},
	}
	for _, n := range []int{1 << 14, 1<<14 + 1, 1000000} {
		spec := tdbc
		spec.BlockLength = n
		err := validateSim(bicoop.SimSpec{BitTrueTDBC: &spec, Trials: 1})
		if wantOK := n <= 1<<14; (err == nil) != wantOK || (!wantOK && !errors.Is(err, bicoop.ErrInvalidBlockLength)) {
			t.Errorf("TDBC BlockLength %d: err = %v", n, err)
		}
		mabc := bicoop.BitTrueMABCSpec{Links: bicoop.MABCComputeForwardLinks{EpsMAC: 0.2, EpsRA: 0.1, EpsRB: 0.1}, Rate: 0.1, BlockLength: n}
		err = validateSim(bicoop.SimSpec{BitTrueMABC: &mabc, Trials: 1})
		if wantOK := n <= 1<<14; (err == nil) != wantOK || (!wantOK && !errors.Is(err, bicoop.ErrInvalidBlockLength)) {
			t.Errorf("MABC BlockLength %d: err = %v", n, err)
		}
	}
	huge := tdbc
	huge.BlockLength = 1000000
	var err error
	if n := allocatedBy(func() { _, err = eng.Simulate(ctx, bicoop.SimSpec{BitTrueTDBC: &huge, Trials: 1}) }); n > 1<<20 {
		t.Errorf("rejecting a %d-symbol block allocated %d bytes", huge.BlockLength, n)
	}
	if !errors.Is(err, bicoop.ErrInvalidBlockLength) {
		t.Errorf("Simulate with a %d-symbol block: err = %v, want ErrInvalidBlockLength", huge.BlockLength, err)
	}
	for _, r := range []float64{1, 1.5, math.Inf(1)} {
		spec := tdbc
		spec.BlockLength = 100
		spec.Rates.Rb = r
		err := validateSim(bicoop.SimSpec{BitTrueTDBC: &spec, Trials: 1})
		if (err == nil) != (r <= 1) || (r > 1 && !errors.Is(err, bicoop.ErrInvalidRates)) {
			t.Errorf("TDBC rate %g: err = %v", r, err)
		}
	}
}
