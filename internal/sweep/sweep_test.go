package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"bicoop/internal/protocols"
	"bicoop/internal/sim"
)

func testScenarios(n int) []Scenario {
	out := make([]Scenario, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Scenario{
			PowerDB: -5 + 25*float64(i)/float64(n),
			GabDB:   -7 + float64(i%5),
			GarDB:   0,
			GbrDB:   5,
		})
	}
	return out
}

func testSpec() Spec {
	places := make([]Placement, 0, 12)
	for i := 0; i < 12; i++ {
		places = append(places, Placement{Pos: 0.08 + 0.07*float64(i), Exponent: 3})
	}
	return Spec{
		Base:       Scenario{GabDB: -7, GarDB: 0, GbrDB: 5},
		PowersDB:   []float64{0, 5, 10, 15},
		Placements: places,
		Erasures:   []sim.ErasureNetwork{{EpsAR: 0.2, EpsBR: 0.1, EpsAB: 0.6}, {EpsAR: 0.3, EpsBR: 0.3, EpsAB: 0.5}},
	}
}

// TestBatchBitIdenticalAcrossWorkers is the sharding determinism contract:
// every worker count produces the same bits, for the fast-path protocols and
// for the simplex ones alike.
func TestBatchBitIdenticalAcrossWorkers(t *testing.T) {
	scen := testScenarios(5*ChunkSize + 17)
	runBatch := func(proto protocols.Protocol, workers int) []Result {
		t.Helper()
		out := make([]Result, len(scen))
		n, err := Batch(context.Background(), proto, protocols.BoundInner, len(scen), Options{Workers: workers}, nil,
			func(i int) Scenario { return scen[i] },
			func(i int, r Result) { out[i] = r })
		if err != nil || n != len(scen) {
			t.Fatalf("%v workers=%d: n=%d err=%v", proto, workers, n, err)
		}
		return out
	}
	for _, proto := range []protocols.Protocol{protocols.TDBC, protocols.Naive4, protocols.HBC} {
		ref := runBatch(proto, 1)
		for _, workers := range []int{2, 3, 8} {
			got := runBatch(proto, workers)
			for i := range ref {
				if got[i].Sum != ref[i].Sum || got[i].Ra != ref[i].Ra || got[i].Rb != ref[i].Rb ||
					!reflect.DeepEqual(got[i].Durations, ref[i].Durations) {
					t.Fatalf("%v workers=%d: result %d differs: %+v vs %+v", proto, workers, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestSweepBitIdenticalAcrossWorkers pins sweep points — order, coordinates
// and every result bit — across worker counts.
func TestSweepBitIdenticalAcrossWorkers(t *testing.T) {
	spec := testSpec()
	collect := func(workers int) []Point {
		var pts []Point
		err := Sweep(context.Background(), spec, Options{Workers: workers}, nil, func(pt Point) error {
			pts = append(pts, pt)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return pts
	}
	ref := collect(1)
	if len(ref) != spec.Size() {
		t.Fatalf("got %d points, want %d", len(ref), spec.Size())
	}
	for i, pt := range ref {
		if pt.Index != i {
			t.Fatalf("point %d carries Index %d", i, pt.Index)
		}
	}
	for _, workers := range []int{2, 8} {
		got := collect(workers)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d sweep differs from sequential", workers)
		}
	}
}

// TestSweepMatchesSinglePointSolves re-derives every Naive4/HBC sweep point
// with a fresh evaluator's single-point solve and pins objective, rates and
// durations with ==: a sweep point depends only on its own scenario, never
// on the points its worker solved before it.
func TestSweepMatchesSinglePointSolves(t *testing.T) {
	spec := testSpec()
	spec.Protocols = []protocols.Protocol{protocols.Naive4, protocols.HBC}
	for _, workers := range []int{1, 3} {
		err := Sweep(context.Background(), spec, Options{Workers: workers}, nil, func(pt Point) error {
			if pt.ErasureIdx >= 0 {
				return nil
			}
			opt, err := protocols.NewEvaluator().WeightedRate(pt.Proto, pt.Bound, pt.Scenario.Linear(), 1, 1)
			if err != nil {
				return err
			}
			if pt.Sum != opt.Objective || pt.Ra != opt.Rates.Ra || pt.Rb != opt.Rates.Rb ||
				!reflect.DeepEqual(pt.Durations, opt.Durations) {
				t.Errorf("workers=%d point %d (%v): sweep (%.17g, %.17g, %.17g, %v), single (%.17g, %.17g, %.17g, %v)",
					workers, pt.Index, pt.Proto, pt.Sum, pt.Ra, pt.Rb, pt.Durations,
					opt.Objective, opt.Rates.Ra, opt.Rates.Rb, opt.Durations)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunEmitOrderAndPrefix checks the streaming sink contract under real
// concurrency: ascending chunk order, and a yield error halting the pool.
func TestRunEmitOrderAndPrefix(t *testing.T) {
	const n = 10*ChunkSize + 5
	var emitted []int
	sentinel := errors.New("stop")
	stopAt := 4 * ChunkSize
	prefix, err := RunCore(context.Background(), n, ChunkSize, Options{Workers: 4}, evaluatorHooks,
		func(ev *protocols.Evaluator, lo, hi int) error { return nil },
		func(lo, hi int) error {
			if lo != len(emitted)*ChunkSize {
				return fmt.Errorf("emit out of order: lo=%d after %d chunks", lo, len(emitted))
			}
			emitted = append(emitted, lo)
			if lo == stopAt {
				return sentinel
			}
			return nil
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if prefix != stopAt {
		t.Errorf("prefix = %d, want %d", prefix, stopAt)
	}
}

// TestRunDoErrorOrder pins that the reported error is the first one in
// enumeration order, not completion order.
func TestRunDoErrorOrder(t *testing.T) {
	const n = 8 * ChunkSize
	early := errors.New("early")
	late := errors.New("late")
	_, err := RunCore(context.Background(), n, ChunkSize, Options{Workers: 4}, evaluatorHooks,
		func(ev *protocols.Evaluator, lo, hi int) error {
			switch lo / ChunkSize {
			case 2:
				time.Sleep(20 * time.Millisecond)
				return early
			case 6:
				return late
			}
			return nil
		}, nil)
	if !errors.Is(err, early) {
		t.Fatalf("err = %v, want the error of the earliest chunk", err)
	}
}

// TestRunCancellation proves a cancelled run stops promptly, reports the
// contiguous completed prefix, and leaks no goroutines.
func TestRunCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Bool
	go func() {
		for !started.Load() {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	var completed atomic.Int64
	const n = 1 << 20
	prefix, err := RunCore(ctx, n, ChunkSize, Options{Workers: 2}, evaluatorHooks,
		func(ev *protocols.Evaluator, lo, hi int) error {
			started.Store(true)
			time.Sleep(time.Millisecond)
			completed.Add(1)
			return nil
		}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if prefix < 0 || prefix >= n {
		t.Errorf("prefix = %d, want a strict partial prefix", prefix)
	}
	if int(completed.Load()) >= n/ChunkSize {
		t.Error("run ignored cancellation")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, g)
	}
}

// TestRunCancellationCause pins the wrapped-cause contract shared with
// internal/sim.
func TestRunCancellationCause(t *testing.T) {
	cause := errors.New("shutting down")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	_, err := RunCore(ctx, 1000, ChunkSize, Options{Workers: 4}, evaluatorHooks,
		func(ev *protocols.Evaluator, lo, hi int) error { return nil }, nil)
	if !errors.Is(err, context.Canceled) || !errors.Is(err, cause) {
		t.Errorf("err = %v, want context.Canceled wrapping the cause", err)
	}
}

// TestSpecSizeAndErasures covers axis defaulting and the erasures-only
// shape.
func TestSpecSizeAndErasures(t *testing.T) {
	spec := testSpec()
	want := 4*12*len(protocols.Protocols()) + 2
	if got := spec.Size(); got != want {
		t.Fatalf("Size = %d, want %d", got, want)
	}
	only := Spec{Erasures: spec.Erasures}
	if got := only.Size(); got != 2 {
		t.Fatalf("erasures-only Size = %d, want 2", got)
	}
	var pts []Point
	if err := Sweep(context.Background(), only, Options{Workers: 1}, nil, func(pt Point) error {
		pts = append(pts, pt)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].ErasureIdx != 0 || pts[1].ErasureIdx != 1 {
		t.Fatalf("erasures-only sweep yielded %+v", pts)
	}
	for _, pt := range pts {
		if pt.Proto != protocols.TDBC || pt.Bound != protocols.BoundInner {
			t.Errorf("erasure point evaluated %v %v, want TDBC inner", pt.Proto, pt.Bound)
		}
	}
}
