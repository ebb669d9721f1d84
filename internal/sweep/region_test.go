package sweep

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"bicoop/internal/protocols"
)

func regionTestSpec() RegionSpec {
	return RegionSpec{
		Scenarios: []Scenario{
			{PowerDB: 0, GabDB: -7, GarDB: 0, GbrDB: 5},
			{PowerDB: 10, GabDB: -7, GarDB: 0, GbrDB: 5},
			{PowerDB: 15, GabDB: -3, GarDB: 2, GbrDB: 4},
		},
		Curves: []RegionCurve{
			{Protocol: protocols.DT, Bound: protocols.BoundInner},
			{Protocol: protocols.MABC, Bound: protocols.BoundInner},
			{Protocol: protocols.TDBC, Bound: protocols.BoundOuter},
			{Protocol: protocols.HBC, Bound: protocols.BoundInner},
			{Protocol: protocols.Naive4, Bound: protocols.BoundInner},
		},
	}
}

func collectRegions(t *testing.T, spec RegionSpec, workers int) []RegionResult {
	t.Helper()
	var out []RegionResult
	err := RegionBatch(context.Background(), spec, Options{Workers: workers}, nil, func(r RegionResult) error {
		out = append(out, r)
		return nil
	})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return out
}

// TestRegionBatchBitIdenticalAcrossWorkers is the sharding determinism
// contract for the region workload: every worker count must produce the
// same polygon vertices bit for bit, simplex-solved Naive4/HBC curves
// included.
func TestRegionBatchBitIdenticalAcrossWorkers(t *testing.T) {
	spec := regionTestSpec()
	ref := collectRegions(t, spec, 1)
	if len(ref) != spec.Size() {
		t.Fatalf("got %d curves, want %d", len(ref), spec.Size())
	}
	for _, workers := range []int{2, 7} {
		got := collectRegions(t, spec, workers)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d curves, want %d", workers, len(got), len(ref))
		}
		for i := range ref {
			if got[i].ScenarioIdx != ref[i].ScenarioIdx || got[i].CurveIdx != ref[i].CurveIdx {
				t.Fatalf("workers=%d: curve %d coordinates differ: %+v vs %+v",
					workers, i, got[i], ref[i])
			}
			gv, rv := got[i].Polygon.Vertices(), ref[i].Polygon.Vertices()
			if !reflect.DeepEqual(gv, rv) {
				t.Fatalf("workers=%d: curve %d vertices differ:\n  got  %v\n  want %v",
					workers, i, gv, rv)
			}
		}
	}
}

// TestRegionBatchEnumerationOrder pins the streaming order: scenario-major,
// curve-minor, regardless of completion order.
func TestRegionBatchEnumerationOrder(t *testing.T) {
	spec := regionTestSpec()
	got := collectRegions(t, spec, 4)
	for i, r := range got {
		wantScen, wantCurve := i/len(spec.Curves), i%len(spec.Curves)
		if r.ScenarioIdx != wantScen || r.CurveIdx != wantCurve {
			t.Fatalf("curve %d arrived as (%d, %d), want (%d, %d)",
				i, r.ScenarioIdx, r.CurveIdx, wantScen, wantCurve)
		}
	}
}

// TestRegionBatchMatchesSerialRegion cross-checks the sharded path against
// the serial Evaluator.Region refinement. Every LP is a cold solve of its
// own direction, so the polygons must agree bit for bit for every protocol,
// the simplex-solved Naive4/HBC curves included.
func TestRegionBatchMatchesSerialRegion(t *testing.T) {
	spec := regionTestSpec()
	got := collectRegions(t, spec, 3)
	for _, r := range got {
		c := spec.Curves[r.CurveIdx]
		s := spec.Scenarios[r.ScenarioIdx]
		want, err := protocols.GaussianRegion(c.Protocol, c.Bound, s.Linear())
		if err != nil {
			t.Fatal(err)
		}
		if gv, wv := r.Polygon.Vertices(), want.Vertices(); !reflect.DeepEqual(gv, wv) {
			t.Errorf("%v %v scenario %d: sharded vertices differ from serial:\n  got  %v\n  want %v",
				c.Protocol, c.Bound, r.ScenarioIdx, gv, wv)
		}
	}
}

// TestRegionBatchCancellation proves a long region batch stops sub-second on
// cancellation and leaks no goroutines — the contract a Ctrl-C in `bcc
// region` relies on. A curve takes only a handful of LP solves, so the
// batch is long through its curve count, and the context is cancelled from
// inside the first yield: a batch that ignored the cancel would run every
// curve and return nil.
func TestRegionBatchCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := RegionSpec{
		Curves: []RegionCurve{{Protocol: protocols.HBC, Bound: protocols.BoundInner}},
	}
	// Seconds of LP solves if cancellation were ignored.
	for i := 0; i < 100_000; i++ {
		spec.Scenarios = append(spec.Scenarios, Scenario{PowerDB: 10 + float64(i%100)/10, GabDB: -7, GarDB: 0, GbrDB: 5})
	}
	var cancelled time.Time
	yields := 0
	err := RegionBatch(ctx, spec, Options{Workers: 2}, nil, func(RegionResult) error {
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
		t.Fatalf("cancelled region batch took %v to return, want sub-second", elapsed)
	}
	if yields >= spec.Size() {
		t.Errorf("yielded all %d curves after the cancel", yields)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, g)
	}
}

// TestRegionBatchYieldError pins that a yield error stops the batch and is
// returned verbatim.
func TestRegionBatchYieldError(t *testing.T) {
	sentinel := errors.New("stop")
	spec := regionTestSpec()
	n := 0
	err := RegionBatch(context.Background(), spec, Options{Workers: 2}, nil, func(RegionResult) error {
		n++
		if n == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) || n != 3 {
		t.Fatalf("err = %v after %d yields, want sentinel after 3", err, n)
	}
}

// TestRegionBatchDegenerateSpecs covers the empty spec and a NaN scenario.
func TestRegionBatchDegenerateSpecs(t *testing.T) {
	if err := RegionBatch(context.Background(), RegionSpec{}, Options{}, nil, func(RegionResult) error {
		t.Fatal("yield on empty spec")
		return nil
	}); err != nil {
		t.Fatalf("empty spec err = %v, want nil", err)
	}
	nan := regionTestSpec()
	nan.Scenarios[0].PowerDB = math.NaN()
	if err := RegionBatch(context.Background(), nan, Options{}, nil, func(RegionResult) error { return nil }); err == nil {
		t.Fatal("NaN scenario accepted")
	}
}

// TestRegionBatchAxisAnchors pins that every polygon's per-user maxima come
// from the exact axis solves: the support in each axis direction equals the
// dedicated (1,0)/(0,1) solve.
func TestRegionBatchAxisAnchors(t *testing.T) {
	spec := regionTestSpec()
	got := collectRegions(t, spec, 2)
	ev := protocols.NewEvaluator()
	for _, r := range got {
		c := spec.Curves[r.CurveIdx]
		li, err := protocols.LinkInfosFromScenario(spec.Scenarios[r.ScenarioIdx].Linear())
		if err != nil {
			t.Fatal(err)
		}
		raOpt, err := ev.WeightedRateLinks(c.Protocol, c.Bound, li, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		rbOpt, err := ev.WeightedRateLinks(c.Protocol, c.Bound, li, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		maxRa, _ := r.Polygon.Support(1, 0)
		maxRb, _ := r.Polygon.Support(0, 1)
		if math.Abs(maxRa-raOpt.Rates.Ra) > 1e-9 || math.Abs(maxRb-rbOpt.Rates.Rb) > 1e-9 {
			t.Errorf("%v %v scenario %d: axis maxima (%g, %g), want (%g, %g)",
				c.Protocol, c.Bound, r.ScenarioIdx, maxRa, maxRb, raOpt.Rates.Ra, rbOpt.Rates.Rb)
		}
	}
}
