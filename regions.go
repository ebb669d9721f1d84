package bicoop

// regions.go — the public face of the rate-region subsystem. A region curve
// (one curve of the paper's Fig 4) is a support-function sweep: one
// weighted-rate LP per support direction. RegionBatchSpec declares a whole
// family of curves — scenarios × protocol bounds — and Engine.RegionBatch
// streams the completed polygons in enumeration order, with the flattened
// angle axis sharded by the same chunked core as the sum-rate grids
// (internal/sweep): per-worker pooled evaluators, fixed chunk boundaries,
// bounded streaming backpressure, and cancellation within one chunk.
// Results are bit-identical for every Workers setting.

import (
	"context"
	"errors"
	"fmt"
	"math"

	"bicoop/internal/protocols"
	"bicoop/internal/sweep"
)

// RegionOptions tunes a region computation.
type RegionOptions struct {
	// Angles is the number of support directions swept across the first
	// quadrant; more angles recover more polygon vertices exactly.
	// Non-positive defaults to 181, the resolution of the paper's Fig 4
	// curves. The two axis directions are always solved exactly on top of
	// the sweep, so the region's maximal per-user rates are exact at every
	// resolution.
	Angles int
	// Workers bounds the goroutines sharding the support-direction axis;
	// zero uses the engine's WithWorkers default, which itself defaults to
	// GOMAXPROCS. Results are bit-identical for every value.
	Workers int
}

// RegionCurve selects one protocol bound whose region is computed for every
// scenario of a RegionBatchSpec.
type RegionCurve struct {
	Protocol Protocol
	Bound    Bound
}

// RegionBatchSpec declares a batch of region computations: the cross
// product Scenarios × Curves, every curve swept at the same resolution.
type RegionBatchSpec struct {
	// Scenarios are the evaluation points; at least one is required.
	Scenarios []Scenario
	// Curves are the protocol bounds; at least one is required.
	Curves []RegionCurve
	// Angles is the per-curve support-direction count (see RegionOptions).
	Angles int
	// Workers bounds the goroutines sharding the flattened angle axis;
	// zero uses the engine's WithWorkers default. Results are bit-identical
	// for every value.
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

// Validate checks the spec without running it: both axes non-empty, at
// least 2 support directions per curve, a flattened direction count
// (Angles+2 solves per curve) whose point buffer fits an int, every
// scenario finite, every curve's enums known, and the resume offset
// non-negative. Engine.RegionBatch runs the same checks; wire-facing
// callers (the bccd job service) validate at admission time.
func (spec RegionBatchSpec) Validate() error {
	if len(spec.Scenarios) == 0 || len(spec.Curves) == 0 {
		return fmt.Errorf("%w: %d scenarios x %d curves (both axes need at least one entry)",
			ErrInvalidRegionSpec, len(spec.Scenarios), len(spec.Curves))
	}
	// sweep.RegionBatch buffers one 16-byte point per flattened direction,
	// Angles+2 per curve; a batch whose buffer size overflows an int could
	// only fail inside make.
	angles := spec.Angles
	if angles <= 0 {
		angles = protocols.DefaultRegionAngles
	}
	const pointBytes = 16
	maxDirs := math.MaxInt / pointBytes
	nS, nC := len(spec.Scenarios), len(spec.Curves)
	if angles < 2 || angles > maxDirs-2 || nS > maxDirs/nC || nS*nC > maxDirs/(angles+2) {
		return fmt.Errorf("%w: %d angles for %d scenarios x %d curves (need at least 2 angles and an int-sized direction buffer)",
			ErrInvalidRegionSpec, spec.Angles, nS, nC)
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
		if _, _, err := resolveEnums(c.Protocol, c.Bound); err != nil {
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
// region to yield in enumeration order (scenario outer, curve inner). The
// support-direction axis of the whole batch is flattened and sharded across
// spec.Workers goroutines exactly like the sum-rate grids — fixed chunk
// boundaries, per-worker pooled evaluators — so the polygons are
// bit-identical for every worker count. A non-nil error from yield stops the batch and is
// returned. Cancelling ctx stops the workers within one chunk of LP solves;
// curves yielded before the stop are complete and valid.
func (e *Engine) RegionBatch(ctx context.Context, spec RegionBatchSpec, yield func(RegionBatchPoint) error) error {
	if yield == nil {
		return fmt.Errorf("%w: nil yield callback", ErrInvalidRegionSpec)
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	ispec := sweep.RegionSpec{
		Angles:     spec.Angles,
		Start:      spec.Start,
		Checkpoint: spec.Checkpoint,
	}
	for _, s := range spec.Scenarios {
		ispec.Scenarios = append(ispec.Scenarios, sweep.Scenario(s))
	}
	for _, c := range spec.Curves {
		// Validate resolved these already; a failure here is unreachable.
		ip, ib, _ := resolveEnums(c.Protocol, c.Bound)
		ispec.Curves = append(ispec.Curves, sweep.RegionCurve{Proto: ip, Bound: ib})
	}
	opts := e.sweepOpts(spec.Workers)
	var yieldErr error
	err := sweep.RegionBatch(ctx, ispec, opts, func(r sweep.RegionResult) error {
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
	case errors.Is(err, sweep.ErrSpec):
		return fmt.Errorf("%w: %w", ErrInvalidRegionSpec, err)
	default:
		return fmt.Errorf("bicoop: %w", translateResilience(err))
	}
}

// Region computes the full rate region of a protocol bound (one curve of
// Fig 4). The support-direction sweep is sharded across opts.Workers
// goroutines (default: the engine's WithWorkers setting, then GOMAXPROCS)
// with the same determinism contract as every grid path: the polygon is
// bit-identical for every worker count. Cancelling ctx stops the sweep
// within one chunk of LP solves.
func (e *Engine) Region(ctx context.Context, p Protocol, b Bound, s Scenario, opts RegionOptions) (Region, error) {
	var out Region
	err := e.RegionBatch(ctx, RegionBatchSpec{
		Scenarios: []Scenario{s},
		Curves:    []RegionCurve{{Protocol: p, Bound: b}},
		Angles:    opts.Angles,
		Workers:   opts.Workers,
	}, func(pt RegionBatchPoint) error {
		out = pt.Region
		return nil
	})
	if err != nil {
		return Region{}, err
	}
	return out, nil
}
