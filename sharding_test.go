package bicoop_test

// sharding_test.go — determinism contract of the sharded grid paths: the
// worker count must never change a single result bit, only the wall-clock
// time. These tests exercise the facade end to end (engine pool, chunked
// internal/sweep core, simplex-solved Naive4/HBC LPs).

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"bicoop"
)

// TestSweepPlacementScenarioSentinel pins the facade's typed-error contract
// through the sharded core: a placement whose geometry resolves to an
// unusable scenario must still surface ErrInvalidScenario, as it did before
// sharding.
func TestSweepPlacementScenarioSentinel(t *testing.T) {
	spec := bicoop.SweepSpec{
		Placements: []bicoop.RelayPlacement{{Pos: 0.5, Exponent: math.NaN()}},
	}
	err := bicoop.NewEngine().Sweep(context.Background(), spec, func(bicoop.SweepPoint) error { return nil })
	if !errors.Is(err, bicoop.ErrInvalidScenario) {
		t.Errorf("Sweep err = %v, want ErrInvalidScenario", err)
	}
}

// TestSumRateBatchBitIdenticalAcrossWorkers compares SumRateBatch results
// between a single-worker and heavily-sharded engine with == semantics.
func TestSumRateBatchBitIdenticalAcrossWorkers(t *testing.T) {
	scenarios := grid(333) // several chunks plus a partial tail
	ctx := context.Background()
	for _, p := range []bicoop.Protocol{bicoop.TDBC, bicoop.Naive4, bicoop.HBC} {
		ref, err := bicoop.NewEngine(bicoop.WithWorkers(1)).SumRateBatch(ctx, p, bicoop.Inner, scenarios)
		if err != nil {
			t.Fatalf("%v workers=1: %v", p, err)
		}
		for _, workers := range []int{2, 8} {
			got, err := bicoop.NewEngine(bicoop.WithWorkers(workers)).SumRateBatch(ctx, p, bicoop.Inner, scenarios)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", p, workers, err)
			}
			if len(got) != len(ref) {
				t.Fatalf("%v workers=%d: %d results, want %d", p, workers, len(got), len(ref))
			}
			for i := range ref {
				if got[i].Sum != ref[i].Sum || got[i].Point != ref[i].Point ||
					!reflect.DeepEqual(got[i].Durations, ref[i].Durations) {
					t.Fatalf("%v workers=%d: result %d differs:\n  got  %+v\n  want %+v",
						p, workers, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestRegionBitIdenticalAcrossWorkers pins the region determinism contract
// at the facade: every vertex of every curve of a RegionBatch — including
// the simplex-solved protocols — must be bit-identical (==) for every
// Workers setting.
func TestRegionBitIdenticalAcrossWorkers(t *testing.T) {
	spec := bicoop.RegionBatchSpec{
		Scenarios: []bicoop.Scenario{
			{PowerDB: 0, GabDB: -7, GarDB: 0, GbrDB: 5},
			{PowerDB: 10, GabDB: -7, GarDB: 0, GbrDB: 5},
		},
		Curves: []bicoop.RegionCurve{
			{Protocol: bicoop.MABC, Bound: bicoop.Inner},
			{Protocol: bicoop.TDBC, Bound: bicoop.Outer},
			{Protocol: bicoop.HBC, Bound: bicoop.Inner},
			{Protocol: bicoop.Naive4, Bound: bicoop.Inner},
		},
		Angles: 91,
	}
	ctx := context.Background()
	collect := func(workers int) [][]bicoop.RatePoint {
		t.Helper()
		spec.Workers = workers
		var out [][]bicoop.RatePoint
		err := bicoop.NewEngine().RegionBatch(ctx, spec, func(pt bicoop.RegionBatchPoint) error {
			out = append(out, pt.Region.Vertices())
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}
	ref := collect(1)
	if len(ref) != spec.Size() {
		t.Fatalf("got %d curves, want %d", len(ref), spec.Size())
	}
	for _, workers := range []int{2, 7} {
		got := collect(workers)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d curves, want %d", workers, len(got), len(ref))
		}
		for c := range ref {
			if len(got[c]) != len(ref[c]) {
				t.Fatalf("workers=%d: curve %d has %d vertices, want %d", workers, c, len(got[c]), len(ref[c]))
			}
			for v := range ref[c] {
				if got[c][v] != ref[c][v] { // == on both float fields
					t.Fatalf("workers=%d: curve %d vertex %d = %+v, want %+v",
						workers, c, v, got[c][v], ref[c][v])
				}
			}
		}
	}
}

// TestCampaignBitIdenticalAcrossWorkers pins the campaign determinism
// contract: the merged statistics of every run in a mixed fading/bit-true
// campaign are identical for every outer worker count, because each spec
// carries its own seed and a pinned inner worker count.
func TestCampaignBitIdenticalAcrossWorkers(t *testing.T) {
	scen := bicoop.Scenario{PowerDB: 5, GabDB: -7, GarDB: 0, GbrDB: 5}
	links := bicoop.ErasureLinks{EpsAR: 0.2, EpsBR: 0.1, EpsAB: 0.6}
	var specs []bicoop.SimSpec
	for i := 0; i < 5; i++ {
		specs = append(specs, bicoop.SimSpec{
			Fading: &bicoop.FadingSpec{Scenario: scen, Target: bicoop.RatePoint{Ra: 0.5, Rb: 0.5}},
			Trials: 120,
			Seed:   int64(100 + i),
		})
		specs = append(specs, bicoop.SimSpec{
			BitTrueTDBC: &bicoop.BitTrueTDBCSpec{Links: links, Rates: bicoop.RatePoint{Ra: 0.15, Rb: 0.15}, BlockLength: 400},
			Trials:      6,
			Seed:        int64(200 + i),
			Workers:     3, // explicit inner sharding stays deterministic too
		})
	}
	ctx := context.Background()
	run := func(workers int) []bicoop.SimResult {
		t.Helper()
		res, err := bicoop.NewEngine().SimulateBatch(ctx, bicoop.CampaignSpec{Specs: specs, Workers: workers}, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res) != len(specs) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(res), len(specs))
		}
		return res
	}
	ref := run(1)
	for _, workers := range []int{2, 7} {
		got := run(workers)
		for i := range ref {
			if !reflect.DeepEqual(got[i], ref[i]) {
				t.Fatalf("workers=%d: campaign result %d differs:\n  got  %+v\n  want %+v",
					workers, i, got[i], ref[i])
			}
		}
	}
}

// TestSweepAllBitIdenticalAcrossWorkers pins every SweepPoint field across
// Workers settings, including the simplex-solved Naive4/HBC curves and the
// erasure axis.
func TestSweepAllBitIdenticalAcrossWorkers(t *testing.T) {
	var places []bicoop.RelayPlacement
	for i := 0; i < 30; i++ {
		places = append(places, bicoop.RelayPlacement{Pos: 0.05 + 0.03*float64(i), Exponent: 3})
	}
	spec := bicoop.SweepSpec{
		PowersDB:   []float64{0, 10, 15},
		Placements: places,
		Erasures:   []bicoop.ErasureLinks{{EpsAR: 0.2, EpsBR: 0.1, EpsAB: 0.6}},
	}
	ctx := context.Background()

	spec.Workers = 1
	ref, err := bicoop.NewEngine().SweepAll(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != spec.Size() {
		t.Fatalf("got %d points, want %d", len(ref), spec.Size())
	}
	for _, workers := range []int{2, 8} {
		spec.Workers = workers
		got, err := bicoop.NewEngine().SweepAll(ctx, spec)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, ref) {
			for i := range ref {
				if !reflect.DeepEqual(got[i], ref[i]) {
					t.Fatalf("workers=%d: point %d differs:\n  got  %+v\n  want %+v", workers, i, got[i], ref[i])
				}
			}
			t.Fatalf("workers=%d: sweep differs from sequential", workers)
		}
	}
}

// TestSweepAllocsBoundedPerChunk pins that Sweep allocates per call and
// per chunk, never per point: two grids that differ only in their number
// of placements differ in allocations by at most a small constant per
// extra chunk, where one allocation per point would add 64.
func TestSweepAllocsBoundedPerChunk(t *testing.T) {
	const perChunk = 8
	ctx := context.Background()
	eng := bicoop.NewEngine()
	allocs := func(places int) (float64, int) {
		spec := bicoop.SweepSpec{
			PowersDB: []float64{0, 10},
			Erasures: []bicoop.ErasureLinks{{EpsAR: 0.2, EpsBR: 0.1, EpsAB: 0.6}},
			Workers:  1,
		}
		for i := 0; i < places; i++ {
			pos := float64(i+1) / float64(places+1)
			spec.Placements = append(spec.Placements, bicoop.RelayPlacement{Pos: pos, Exponent: 3})
		}
		yield := func(bicoop.SweepPoint) error { return nil }
		n := testing.AllocsPerRun(5, func() {
			if err := eng.Sweep(ctx, spec, yield); err != nil {
				t.Fatal(err)
			}
		})
		return n, (spec.Size() + 63) / 64
	}
	small, smallChunks := allocs(8)
	large, largeChunks := allocs(128)
	t.Logf("%d chunks: %v allocs; %d chunks: %v allocs", smallChunks, small, largeChunks, large)
	if extra := large - small; extra > float64(perChunk*(largeChunks-smallChunks)) {
		t.Errorf("%d more chunks cost %v more allocations, want at most %d per chunk",
			largeChunks-smallChunks, extra, perChunk)
	}
}
