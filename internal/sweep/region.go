package sweep

// region.go — the rate-region workload on the generic core. A region curve
// (one curve of the paper's Fig 4) is an exact convex polygon, refined edge
// by edge from a handful of weighted-rate LPs (protocols.RefineRegion).
// RegionBatch runs a whole batch of curves (scenarios × protocol bounds)
// through RunCore with the curve as the work unit: one-curve chunks,
// per-worker pooled evaluators, one cache.(*Store).Solve per direction,
// bounded streaming, runGate cancellation. Completed curves are streamed in
// enumeration order; results are bit-identical for every worker count.

import (
	"context"
	"fmt"

	"bicoop/internal/cache"
	"bicoop/internal/protocols"
	"bicoop/internal/region"
	"bicoop/internal/sim"
)

// RegionCurve selects one protocol bound whose rate region is computed for
// every scenario of a RegionSpec.
type RegionCurve struct {
	Protocol protocols.Protocol
	Bound    protocols.Bound
}

// RegionSpec declares a batch of region computations: the cross product
// Scenarios × Curves.
type RegionSpec struct {
	Scenarios []Scenario
	Curves    []RegionCurve
}

// Size returns the number of curves the batch will yield.
func (spec RegionSpec) Size() int { return len(spec.Scenarios) * len(spec.Curves) }

// RegionResult is one completed curve: the polygon plus its batch
// coordinates (ScenarioIdx × CurveIdx, scenario-major enumeration).
type RegionResult struct {
	ScenarioIdx, CurveIdx int
	Polygon               region.Polygon
}

// RegionBatch computes every curve of the batch and streams completed
// polygons to yield in enumeration order (scenario outer, curve inner).
// Curves are sharded across opts.Workers via RunCore, one curve per chunk,
// with pooled per-worker evaluators; every direction is solved through
// store (nil: caching off). opts.Start and opts.Checkpoint count
// whole curves (scenario-major): a resumed batch skips the first Start
// curves, and the checkpoint observes the contiguous yielded curve count.
// Every weighted-rate LP is a cold solve that depends only on its own
// direction, so every polygon is bit-identical for every worker count and
// cache setting. A yield error or context
// cancellation stops the batch within one curve per worker; curves yielded
// before the stop are complete and valid.
func RegionBatch(ctx context.Context, spec RegionSpec, opts Options, store *cache.Store, yield func(RegionResult) error) error {
	nCurvesPerScen := len(spec.Curves)
	nCurves := spec.Size()
	if nCurves == 0 {
		return sim.CtxErr(ctx)
	}
	// Link informations are scenario-level and shared by every curve and
	// direction, so they are resolved once up front (full, unmasked — the
	// same values the serial Evaluator.Region path uses).
	lis := make([]protocols.LinkInfos, len(spec.Scenarios))
	for si, s := range spec.Scenarios {
		li, err := protocols.LinkInfosFromScenario(s.Linear())
		if err != nil {
			return fmt.Errorf("region scenario %d: %w", si, err)
		}
		lis[si] = li
	}

	polys := make([]region.Polygon, nCurves)
	do := func(ev *protocols.Evaluator, lo, hi int) error {
		for k := lo; k < hi; k++ {
			si := k / nCurvesPerScen
			c := spec.Curves[k%nCurvesPerScen]
			s := spec.Scenarios[si]
			pg, err := protocols.RefineRegion(func(muA, muB float64) (region.Point, error) {
				// Region vertices cache as raw weighted solves keyed by the
				// direction, so hits and misses refine identically.
				v, err := store.Solve(cache.WeightedKey(c.Protocol, c.Bound, s.PowerDB, s.GabDB, s.GarDB, s.GbrDB, muA, muB),
					func() (protocols.Optimum, error) {
						return ev.WeightedRateLinks(c.Protocol, c.Bound, lis[si], muA, muB)
					})
				return region.Point{Ra: v.Ra, Rb: v.Rb}, err
			})
			if err != nil {
				return fmt.Errorf("region curve %d (%v %v, scenario %d): %w", k, c.Protocol, c.Bound, si, err)
			}
			polys[k] = pg
		}
		return nil
	}
	emit := func(lo, hi int) error {
		for k := lo; k < hi; k++ {
			pg := polys[k]
			polys[k] = region.Polygon{} // release once streamed
			if err := yield(RegionResult{
				ScenarioIdx: k / nCurvesPerScen,
				CurveIdx:    k % nCurvesPerScen,
				Polygon:     pg,
			}); err != nil {
				return err
			}
		}
		return nil
	}
	_, err := RunCore(ctx, nCurves, 1, opts, evaluatorHooks, do, emit)
	return err
}
