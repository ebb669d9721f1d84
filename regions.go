package bicoop

// regions.go — the public face of the rate-region subsystem. A region curve
// (one curve of the paper's Fig 4) is an exact convex polygon, refined edge
// by edge from about five weighted-rate LPs. RegionBatchSpec declares a
// whole family of curves — scenarios × protocol bounds — and
// Engine.RegionBatch streams the completed polygons in enumeration order,
// with the curves sharded by the same core as the sum-rate grids
// (internal/sweep): per-worker pooled evaluators, one curve per chunk,
// bounded streaming backpressure, and cancellation within one curve.
// Results are bit-identical for every Workers setting.

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"bicoop/internal/protocols"
	"bicoop/internal/sweep"
)

// RegionCurve selects one protocol bound whose region is computed for every
// scenario of a RegionBatchSpec. It is an alias of the internal
// sweep.RegionCurve.
type RegionCurve = sweep.RegionCurve

// RegionBatchSpec declares a batch of region computations: the cross
// product Scenarios × Curves.
type RegionBatchSpec struct {
	// Scenarios are the evaluation points; at least one is required.
	Scenarios []Scenario
	// Curves are the protocol bounds; at least one is required.
	Curves []RegionCurve
	// Angles is deprecated and ignored: every curve is refined to its exact
	// vertices. Validate still rejects 1 and direction counts beyond
	// maxRegionDirections.
	Angles int
	// Workers bounds the goroutines sharding the curves; zero uses the
	// engine's WithWorkers default. Results are bit-identical for every
	// value.
	Workers int
	// Start resumes the batch past the first Start curves (scenario-major
	// enumeration): an earlier run already yielded them, so they are not
	// recomputed or yielded again. Feed a Checkpointer's last saved value
	// back here.
	Start int
	// Checkpoint, when non-nil, observes the yielded-curve watermark as it
	// advances — whole curves, the unit RegionBatch yields in (see
	// Checkpointer). A Save error stops the batch.
	Checkpoint Checkpointer
}

// Size returns the number of curves the batch will yield.
func (spec RegionBatchSpec) Size() int { return len(spec.Scenarios) * len(spec.Curves) }

// maxRegionDirections caps Scenarios × Curves × (Angles+2). No buffer is
// sized by it: sweep.RegionBatch holds one polygon slot per curve, so with
// the deprecated Angles ignored the cap only bounds the curve count
// (2^24/183 curves at the default Angles). It goes with the Angles field.
const maxRegionDirections = 1 << 24

// Validate checks the spec without running it: both axes non-empty,
// Angles not 1 and Scenarios × Curves × (Angles+2) at most
// maxRegionDirections (kept for the deprecated field), every scenario
// finite, every curve's enums known, and the resume offset non-negative.
// Engine.RegionBatch runs the same checks; wire-facing callers (the bccd job
// service) validate at admission time.
func (spec RegionBatchSpec) Validate() error {
	if len(spec.Scenarios) == 0 || len(spec.Curves) == 0 {
		return fmt.Errorf("%w: %d scenarios x %d curves (both axes need at least one entry)",
			ErrInvalidRegionSpec, len(spec.Scenarios), len(spec.Curves))
	}
	angles := spec.Angles
	if angles <= 0 {
		angles = protocols.DefaultRegionAngles
	}
	nS, nC := len(spec.Scenarios), len(spec.Curves)
	if angles < 2 || angles > maxRegionDirections || nS > maxRegionDirections/nC || nS*nC > maxRegionDirections/(angles+2) {
		return fmt.Errorf("%w: %d angles for %d scenarios x %d curves (need at least 2 angles and at most %d directions in all)",
			ErrInvalidRegionSpec, spec.Angles, nS, nC, maxRegionDirections)
	}
	if err := validateResume(spec.Start, ErrInvalidRegionSpec); err != nil {
		return err
	}
	for i, s := range spec.Scenarios {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("scenario %d: %w", i, err)
		}
	}
	for i, c := range spec.Curves {
		if err := validateEnums(c.Protocol, c.Bound); err != nil {
			return fmt.Errorf("curve %d: %w", i, err)
		}
	}
	return nil
}

// RegionBatchPoint is one completed curve of a region batch, carrying its
// batch coordinates alongside the polygon.
type RegionBatchPoint struct {
	// ScenarioIdx and CurveIdx index the spec's axes (scenario-major
	// enumeration: all curves of scenario 0, then scenario 1, ...).
	ScenarioIdx, CurveIdx int
	// Scenario and Curve echo the spec entries that produced Region.
	Scenario Scenario
	Curve    RegionCurve
	// Region is the computed rate region.
	Region Region
}

// RegionBatch computes every curve of the batch and streams each completed
// region to yield in enumeration order (scenario outer, curve inner). Each
// curve is refined to its exact vertices in about five LP solves, and the
// curves are sharded across spec.Workers goroutines like the sum-rate grids
// — one curve per chunk, per-worker pooled evaluators — so the polygons are
// bit-identical for every worker count. A non-nil error from yield stops
// the batch and is returned. Cancelling ctx stops the workers within one
// curve each; curves yielded before the stop are complete and valid.
func (e *Engine) RegionBatch(ctx context.Context, spec RegionBatchSpec, yield func(RegionBatchPoint) error) error {
	if yield == nil {
		return fmt.Errorf("%w: nil yield callback", ErrInvalidRegionSpec)
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	// The workers read these copies, so a yield that edits the caller's
	// spec cannot race them.
	ispec := sweep.RegionSpec{Scenarios: slices.Clone(spec.Scenarios), Curves: slices.Clone(spec.Curves)}
	opts := sweep.Options{Workers: e.poolWorkers(spec.Workers), Start: spec.Start, Checkpoint: spec.Checkpoint}
	var yieldErr error
	err := sweep.RegionBatch(ctx, ispec, opts, e.cache, func(r sweep.RegionResult) error {
		pub := RegionBatchPoint{
			ScenarioIdx: r.ScenarioIdx,
			CurveIdx:    r.CurveIdx,
			Scenario:    spec.Scenarios[r.ScenarioIdx],
			Curve:       spec.Curves[r.CurveIdx],
			Region:      Region{poly: r.Polygon},
		}
		if err := yield(pub); err != nil {
			yieldErr = err
			return err
		}
		return nil
	})
	switch {
	case err == nil:
		return nil
	case yieldErr != nil && errors.Is(err, yieldErr):
		return yieldErr // the caller's own error, returned verbatim
	default:
		return fmt.Errorf("bicoop: %w", err)
	}
}

// Region computes the exact rate region of a protocol bound (one curve of
// Fig 4): a one-curve RegionBatch, with the same determinism contract as
// every grid path. The curve's handful of LP solves runs on one goroutine;
// a context cancelled before the call is refused.
func (e *Engine) Region(ctx context.Context, p Protocol, b Bound, s Scenario) (Region, error) {
	var out Region
	err := e.RegionBatch(ctx, RegionBatchSpec{
		Scenarios: []Scenario{s},
		Curves:    []RegionCurve{{Protocol: p, Bound: b}},
	}, func(pt RegionBatchPoint) error {
		out = pt.Region
		return nil
	})
	if err != nil {
		return Region{}, err
	}
	return out, nil
}
