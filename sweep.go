package bicoop

// sweep.go — the public face of the grid subsystem. The paper's headline
// artifacts (Fig 3 placement sweeps, power crossovers, erasure waterfall
// placement) are all grids of scenarios; SweepSpec declares the axes once
// and Engine.Sweep streams the evaluated points through a callback in
// enumeration order. Evaluation itself is sharded by internal/sweep: the
// grid is split into fixed-size chunks pulled by a worker pool, each worker
// holds a pooled evaluator, and every LP is a cold solve of its own point,
// so results are bit-identical for every Workers setting, cache on or off.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"bicoop/internal/sweep"
)

// SweepSpec declares a grid of evaluation points. The Gaussian grid is the
// cross product PowersDB × Placements × Protocols; Erasures is an
// independent axis of erasure networks evaluated on the TDBC inner bound
// (the bound the bit-true simulator executes). Zero-value fields default:
// Protocols to AllProtocols(), Bound to Inner, PowersDB to {Base.PowerDB},
// and an empty Placements axis evaluates the Base gains directly. A spec
// that sets Erasures and no Gaussian axis (no PowersDB, no Placements) is
// an erasures-only sweep — the Base scenario is not evaluated; set
// PowersDB explicitly to combine both.
type SweepSpec struct {
	// Protocols to evaluate at every Gaussian grid point.
	Protocols []Protocol
	// Bound selects inner or outer; zero means Inner.
	Bound Bound
	// Base supplies the link gains when Placements is empty and the power
	// when PowersDB is empty.
	Base Scenario
	// PowersDB is the transmit-power axis (dB).
	PowersDB []float64
	// Placements is the relay-geometry axis; each entry derives gains from
	// a relay position and path-loss exponent.
	Placements []RelayPlacement
	// Erasures is the erasure-network axis: each entry contributes one
	// TDBC inner-bound point (Theorem 3 with every mutual-information term
	// equal to one minus the link's erasure probability).
	Erasures []ErasureLinks
	// Workers bounds the goroutines sharding the grid; zero uses the
	// engine's WithWorkers default, which itself defaults to GOMAXPROCS.
	// Results are bit-identical for every value — Workers only trades
	// wall-clock time for cores.
	Workers int
	// Start resumes the sweep past the first Start points: an earlier run
	// already yielded them, so they are neither re-evaluated (beyond at
	// most one chunk of warm-up) nor yielded again. Feed a Checkpointer's
	// last saved watermark back here; the concatenated yields of the two
	// runs match an uninterrupted sweep exactly.
	Start int
	// Checkpoint, when non-nil, observes the yielded-point watermark as it
	// advances (see Checkpointer). A Save error stops the sweep.
	Checkpoint Checkpointer
}

// MaxSweepScenarios caps a SweepSpec's Gaussian scenarios, the PowersDB ×
// Placements pairs (an empty axis counts once). The sweep resolves every
// pair before its first point, about 48 bytes each, so the cap holds that
// to about 12 MiB; larger grids are ErrInvalidSweepSpec.
const MaxSweepScenarios = 1 << 18

// Size returns the number of points the sweep will yield.
func (spec SweepSpec) Size() int { return spec.internal().Size() }

// internal copies the grid axes into the internal spec form.
func (spec SweepSpec) internal() sweep.Spec {
	return sweep.Spec{
		Protocols:  spec.Protocols,
		Bound:      spec.Bound,
		Base:       spec.Base,
		PowersDB:   spec.PowersDB,
		Placements: spec.Placements,
		Erasures:   spec.Erasures,
	}
}

// Validate checks the spec without running it: the scenario count against
// MaxSweepScenarios, axis values, protocol and bound enums, and the resume
// offset. Engine.Sweep runs the same checks up front; callers that accept
// specs over a wire (the bccd job service) call it at admission time so a
// malformed job is rejected with a typed sentinel before any work is
// queued.
func (spec SweepSpec) Validate() error {
	if err := spec.validate(); err != nil {
		return err
	}
	if err := validateResume(spec.Start, ErrInvalidSweepSpec); err != nil {
		return err
	}
	for _, p := range spec.Protocols {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	if spec.Bound != 0 {
		return spec.Bound.Validate()
	}
	return nil
}

// validate rejects an oversized grid and non-finite spec numbers up front
// with the facade's typed sentinels: every power-axis value, and the Base scenario where the grid
// will actually evaluate it (placements supply their own gains, and an
// erasures-only sweep never touches Base).
func (spec SweepSpec) validate() error {
	// Division, not a product, so no axis length can overflow the check.
	if powers, places := max(len(spec.PowersDB), 1), max(len(spec.Placements), 1); powers > MaxSweepScenarios/places {
		return fmt.Errorf("%w: %d powers x %d placements, at most %d scenarios", ErrInvalidSweepSpec, powers, places, MaxSweepScenarios)
	}
	for i, pdb := range spec.PowersDB {
		if math.IsNaN(pdb) || math.IsInf(pdb, 0) {
			return fmt.Errorf("%w: PowersDB[%d] = %g", ErrInvalidScenario, i, pdb)
		}
	}
	gaussian := len(spec.PowersDB) > 0 || len(spec.Placements) > 0 || len(spec.Erasures) == 0
	if gaussian && len(spec.Placements) == 0 {
		if err := spec.Base.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// SweepPoint is one evaluated grid point, carrying its grid coordinates and
// the resolved scenario alongside the result.
type SweepPoint struct {
	// Index is the point's position in the sweep's enumeration order.
	Index int
	// PowerDB is the transmit power of a Gaussian point.
	PowerDB float64
	// Placement is the relay geometry that produced Scenario, nil for
	// base-gains and erasure points. It points into one copy of the spec's
	// Placements that Sweep makes per call and shares across every point
	// of that placement: read it, never write through it.
	Placement *RelayPlacement
	// Erasure is non-nil for erasure-axis points. Like Placement, it points
	// into Sweep's per-call copy of the spec's Erasures, shared and
	// read-only.
	Erasure *ErasureLinks
	// Scenario is the resolved Gaussian scenario (zero for erasure points).
	Scenario Scenario
	// Protocol and Bound identify the evaluated bound. Erasure points are
	// always TDBC Inner.
	Protocol Protocol
	Bound    Bound
	// Result is the LP-optimal sum rate at the point.
	Result SumRateResult
}

// Sweep evaluates the grid and streams each point to yield in enumeration
// order: for each power, for each placement (or the base gains), for each
// protocol — then each erasure network. A non-nil error from yield stops
// the sweep and is returned. Cancelling ctx stops the workers within one
// chunk of points.
//
// Evaluation is sharded across spec.Workers goroutines (default: the
// engine's WithWorkers setting, then GOMAXPROCS), each holding one
// pooled evaluator across its chunks, so no per-point spec compilation or
// workspace allocation occurs — and the results are bit-identical for
// every worker count.
func (e *Engine) Sweep(ctx context.Context, spec SweepSpec, yield func(SweepPoint) error) error {
	if yield == nil {
		return fmt.Errorf("%w: nil yield callback", ErrInvalidSweepSpec)
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	opts := sweep.Options{Workers: e.poolWorkers(spec.Workers), Start: spec.Start, Checkpoint: spec.Checkpoint}
	// Points reference these copies of the axes: no point allocates, and
	// points stay valid whatever the caller later does to its spec.
	placements := slices.Clone(spec.Placements)
	erasures := slices.Clone(spec.Erasures)
	var yieldErr error
	err := sweep.Sweep(ctx, spec.internal(), opts, e.cache, func(pt sweep.Point) error {
		pub := SweepPoint{
			Index:    pt.Index,
			PowerDB:  pt.PowerDB,
			Scenario: pt.Scenario,
			Protocol: pt.Proto,
			Bound:    pt.Bound,
			Result: SumRateResult{
				Sum:       pt.Sum,
				Point:     RatePoint{Ra: pt.Ra, Rb: pt.Rb},
				Durations: pt.Durations,
			},
		}
		if pt.PlacementIdx >= 0 {
			pub.Placement = &placements[pt.PlacementIdx]
		}
		if pt.ErasureIdx >= 0 {
			pub.Erasure = &erasures[pt.ErasureIdx]
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
		return fmt.Errorf("%w: %w", ErrInvalidSweepSpec, err)
	default:
		return fmt.Errorf("bicoop: %w", err)
	}
}

// SweepAll runs Sweep and collects every point — convenient when the grid
// is small enough to hold in memory.
func (e *Engine) SweepAll(ctx context.Context, spec SweepSpec) ([]SweepPoint, error) {
	out := make([]SweepPoint, 0, spec.Size())
	err := e.Sweep(ctx, spec, func(pt SweepPoint) error {
		out = append(out, pt)
		return nil
	})
	return out, err
}
