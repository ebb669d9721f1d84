package sweep

// region.go — the rate-region workload on the generic core. A region curve
// (one curve of the paper's Fig 4) is a support-function sweep: one
// weighted-rate LP per support direction plus two exact axis solves, hulled
// into a convex polygon. RegionBatch flattens a whole batch of curves
// (scenarios × protocol bounds) into one indexed point set — every support
// direction of every curve is one point — and runs it through RunCore, so
// the angle axis shards exactly like the grid axes: fixed 64-point chunks,
// per-worker pooled evaluators, one cache.(*Store).Solve per direction,
// bounded streaming, runGate cancellation. Completed curves are assembled
// and streamed in enumeration order; results are bit-identical for every
// worker count.

import (
	"context"
	"fmt"

	"bicoop/internal/cache"
	"bicoop/internal/protocols"
	"bicoop/internal/region"
)

// RegionCurve selects one protocol bound whose rate region is computed for
// every scenario of a RegionSpec.
type RegionCurve struct {
	Proto protocols.Protocol
	Bound protocols.Bound
}

// RegionSpec declares a batch of region computations: the cross product
// Scenarios × Curves, each curve swept at the same angular resolution.
type RegionSpec struct {
	Scenarios []Scenario
	Curves    []RegionCurve
	// Angles is the per-curve support-direction count; zero defaults to
	// protocols.DefaultRegionAngles (181).
	Angles int
	// Start resumes the batch at curve index Start (scenario-major
	// enumeration): earlier curves are assumed already yielded by a
	// previous run and are neither recomputed nor yielded again.
	Start int
	// Checkpoint, when non-nil, observes the contiguous yielded curve
	// count as it advances — curve units, unlike the point-level
	// Options.Checkpoint, which RegionBatch overrides. Feed the last saved
	// value back as Start to resume.
	Checkpoint Checkpointer
}

// angles resolves the sweep resolution.
func (spec RegionSpec) angles() int {
	if spec.Angles > 0 {
		return spec.Angles
	}
	return protocols.DefaultRegionAngles
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
// polygons to yield in enumeration order (scenario outer, curve inner). The
// flattened support-direction axis — angles + 2 exact axis solves per curve
// — is sharded across opts.Workers via RunCore with pooled per-worker
// evaluators. Every Naive4/HBC weighted-rate LP is a cold solve that
// depends only on its own direction, so every polygon is bit-identical for
// every worker count. A
// yield error or context cancellation stops the batch within one chunk per
// worker; curves yielded before the stop are complete and valid.
func RegionBatch(ctx context.Context, spec RegionSpec, opts Options, yield func(RegionResult) error) error {
	nCurvesPerScen := len(spec.Curves)
	nCurves := spec.Size()
	if nCurves == 0 {
		return ctxErr(ctx)
	}
	angles := spec.angles()
	if angles < 2 {
		return fmt.Errorf("%w: region sweep needs at least 2 angles, got %d", ErrSpec, angles)
	}
	// Link informations are scenario-level and shared by every curve and
	// direction, so they are resolved once up front (full, unmasked — the
	// same values the serial Evaluator.Region path uses).
	lis := make([]protocols.LinkInfos, len(spec.Scenarios))
	for si, s := range spec.Scenarios {
		li, err := protocols.LinkInfosFromScenario(s.internal())
		if err != nil {
			return fmt.Errorf("region scenario %d: %w", si, err)
		}
		lis[si] = li
	}

	// One flattened point per LP solve: the angles swept directions followed
	// by the two exact axis solves, stored pre-projected so curve assembly
	// is a straight AssembleRegion call over a contiguous slice.
	perCurve := angles + 2
	n := nCurves * perCurve
	pts := make([]region.Point, n)

	// Resume + checkpoint in curve units: the point-level start is the
	// resumed curve's first flattened index (the core floors it to a chunk
	// boundary, re-solving at most one chunk of directions below it, so
	// every direction of every unyielded curve is computed), and the
	// point-level watermark is translated back to whole curves before it
	// reaches the caller's Checkpointer.
	startCurve := spec.Start
	if startCurve < 0 {
		startCurve = 0
	}
	if startCurve > nCurves {
		startCurve = nCurves
	}
	opts.Start = startCurve * perCurve
	if spec.Checkpoint != nil {
		opts.Checkpoint = &curveCheckpoint{inner: spec.Checkpoint, perCurve: perCurve, last: startCurve}
	} else {
		opts.Checkpoint = nil
	}

	do := func(ev *protocols.Evaluator, lo, hi int) error {
		for i := lo; i < hi; i++ {
			k, j := i/perCurve, i%perCurve
			si := k / nCurvesPerScen
			c := spec.Curves[k%nCurvesPerScen]
			var muA, muB float64
			switch {
			case j < angles:
				muA, muB = protocols.RegionDirection(j, angles)
			case j == angles:
				muA, muB = 1, 0
			default:
				muA, muB = 0, 1
			}
			// Region vertices cache as raw weighted solves keyed by the
			// support direction; the axis projection and jitter clamp are
			// applied after Solve, so hits and misses land in pts identically.
			s := spec.Scenarios[si]
			v, err := opts.Cache.Solve(cache.WeightedKey(c.Proto, c.Bound, s.PowerDB, s.GabDB, s.GarDB, s.GbrDB, muA, muB),
				func() (protocols.Optimum, error) {
					return ev.WeightedRateLinks(c.Proto, c.Bound, lis[si], muA, muB)
				})
			if err != nil {
				return fmt.Errorf("region curve %d (%v %v, scenario %d), direction %d: %w",
					k, c.Proto, c.Bound, si, j, err)
			}
			switch {
			case j < angles:
				// Rates are non-negative by construction; clear solver jitter.
				pts[i] = region.Point{Ra: max(v.Ra, 0), Rb: max(v.Rb, 0)}
			case j == angles:
				pts[i] = region.Point{Ra: v.Ra} // exact max Ra, projected
			default:
				pts[i] = region.Point{Rb: v.Rb} // exact max Rb, projected
			}
		}
		return nil
	}
	nextCurve := startCurve
	emit := func(lo, hi int) error {
		for ; (nextCurve+1)*perCurve <= hi; nextCurve++ {
			base := nextCurve * perCurve
			pg := protocols.AssembleRegion(
				pts[base:base+angles],
				pts[base+angles].Ra,
				pts[base+angles+1].Rb,
			)
			if err := yield(RegionResult{
				ScenarioIdx: nextCurve / nCurvesPerScen,
				CurveIdx:    nextCurve % nCurvesPerScen,
				Polygon:     pg,
			}); err != nil {
				return err
			}
		}
		return nil
	}
	_, err := Run(ctx, n, opts, do, emit)
	return err
}

// curveCheckpoint adapts a curve-unit Checkpointer to the core's point-level
// watermark: saves fire only when another whole curve has been emitted. Only
// the emitter goroutine calls Save, so last needs no locking.
type curveCheckpoint struct {
	inner    Checkpointer
	perCurve int
	last     int
}

func (c *curveCheckpoint) Save(watermark int) error {
	curves := watermark / c.perCurve
	if curves <= c.last {
		return nil
	}
	c.last = curves
	return c.inner.Save(curves)
}
