package bicoop

// engine.go — the session-oriented core of the public API. An Engine holds
// the worker-count default and the optional result cache, and exposes
// context-aware batch, sweep and simulation entry points over the
// process-wide evaluator pool (compiled constraint templates keyed by
// (protocol, bound), reusable simplex workspaces, closed-form fast paths).
// It is the only way into the bounds and simulators; workloads that
// evaluate many scenarios (grids, Monte Carlo posts, services) should use
// the batch APIs, which amortize evaluator reuse across calls instead of
// paying pool traffic and result allocation per scenario.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"bicoop/internal/cache"
	"bicoop/internal/experiments"
	"bicoop/internal/protocols"
	"bicoop/internal/sim"
	"bicoop/internal/sweep"
)

// Validation errors returned by the facade. They are detected up front so
// malformed inputs fail loudly instead of propagating NaNs into results.
var (
	// ErrInvalidScenario reports a Scenario with NaN or infinite fields,
	// or a grid point whose gains are unusable. It is the internal
	// protocols sentinel, so errors.Is matches it wherever it was raised.
	ErrInvalidScenario = protocols.ErrInvalidScenario
	// ErrInvalidRates reports a NaN or infinite target rate, or bit-true
	// rates outside [0, 1] or too low to carry a message bit. It is the
	// internal sim sentinel, so errors.Is matches it wherever it was raised.
	ErrInvalidRates = sim.ErrInvalidRates
	// ErrInvalidTrials reports a negative trial count, or a missing one
	// where no default exists (the bit-true simulators). It is the internal
	// sim sentinel.
	ErrInvalidTrials = sim.ErrInvalidTrials
	// ErrInvalidBlockLength reports a bit-true block length that is not
	// positive or exceeds the cap of 16384 channel uses. It is the internal
	// sim sentinel.
	ErrInvalidBlockLength = sim.ErrInvalidBlockLength
	// ErrInvalidSimSpec reports a SimSpec selecting zero or several
	// simulators, or a bit-true spec that breaks a bit-true rule (see
	// BitTrueTDBCSpec); it then wraps the rule's own error as well.
	ErrInvalidSimSpec = errors.New("bicoop: invalid simulation spec")
	// ErrInvalidSweepSpec reports an unusable SweepSpec (e.g. nil yield, or
	// more than MaxSweepScenarios power × placement pairs).
	ErrInvalidSweepSpec = errors.New("bicoop: invalid sweep spec")
	// ErrInvalidRegionSpec reports an unusable RegionBatchSpec (nil yield,
	// an empty axis, or a degenerate angle count).
	ErrInvalidRegionSpec = errors.New("bicoop: invalid region spec")
)

// validateRatePoint rejects NaN and infinite target rates (negative rates
// are semantically meaningful to Feasible — trivially infeasible — and are
// handled downstream).
func validateRatePoint(pt RatePoint) error {
	for _, v := range [...]float64{pt.Ra, pt.Rb} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: (%g, %g)", ErrInvalidRates, pt.Ra, pt.Rb)
		}
	}
	return nil
}

// Engine is the concurrency-safe entry point for evaluating the paper's
// bounds at scale. It holds the default worker count for its sharded runs
// and, optionally, a result cache; its solves lease evaluators (each
// carrying the compiled-spec caches keyed by (protocol, bound) plus
// reusable LP workspaces) from the one process-wide pool, and every grid
// point goes through the cache's single lookup/fill site — a cache-off
// engine takes the same path with a nil store. All methods are safe for
// concurrent use from many goroutines; the zero-cost way to share one
// across a service is a single package-wide instance.
type Engine struct {
	workers int
	cache   *cache.Store
}

// Option configures an Engine at construction.
type Option func(*Engine)

// WithWorkers sets the default worker-pool size for every sharded run the
// engine owns: Simulate's Monte Carlo trials, and the SumRateBatch/Sweep
// grid chunks. Non-positive keeps the package default, GOMAXPROCS. A
// SimSpec's or SweepSpec's Workers field overrides it per run. Batch and
// sweep results are bit-identical for every worker count — the setting
// only trades wall-clock time for cores.
func WithWorkers(n int) Option {
	return func(e *Engine) { e.workers = n }
}

// WithCache enables the engine's in-process scenario-keyed result cache,
// bounded at roughly capacity entries (second-chance eviction past that).
// The analytic bounds are pure functions of the scenario, so SumRate,
// SumRateBatch, Sweep and RegionBatch serve repeat points from the cache
// instead of re-solving their LPs. Keys are exact, so cached results are
// bit-identical to cache-off results for every protocol — see doc.go
// "Result cache" for the key encoding and memory bound. Non-positive
// capacity leaves caching off.
func WithCache(capacity int) Option {
	return func(e *Engine) {
		if capacity > 0 {
			e.cache = cache.NewStore(capacity)
		}
	}
}

// WithCacheStore plugs in an externally built result-cache store. The bccd
// daemon uses this to share one store between the engine and the durable
// cache log (service.OpenCacheLog replays the log into the store, then the
// engine fills it). The store type is internal to the module; other
// callers use WithCache.
func WithCacheStore(s *cache.Store) Option {
	return func(e *Engine) { e.cache = s }
}

// CacheStats are the engine's result-cache counters since construction
// (or the durable log's replay, for a bccd engine). Hits and Misses count
// lookups; Fills counts inserted solves; Evictions counts entries
// displaced by the capacity bound. A zero value is returned when caching
// is off.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Fills     uint64 `json:"fills"`
	Evictions uint64 `json:"evictions"`
}

// CacheStats returns the engine's result-cache counters.
func (e *Engine) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	st := e.cache.Stats()
	return CacheStats{Hits: st.Hits, Misses: st.Misses, Fills: st.Fills, Evictions: st.Evictions}
}

// NewEngine returns a ready-to-use engine. Engines are cheap: the heavy
// state (constraint templates, evaluators) is shared process-wide, and
// pooled evaluators are created lazily as concurrency demands.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{}
	for _, o := range opts {
		o(e)
	}
	return e
}

// poolWorkers resolves the worker count of every sharded run (grids,
// regions, campaigns, simulations): an explicit per-run count wins, then
// the engine's WithWorkers default; a count still zero means GOMAXPROCS
// inside internal/sweep and internal/sim.
func (e *Engine) poolWorkers(workers int) int {
	if workers > 0 {
		return workers
	}
	return e.workers
}

// validateEnums rejects unknown protocol and bound values.
func validateEnums(p Protocol, b Bound) error {
	if err := p.Validate(); err != nil {
		return err
	}
	return b.Validate()
}

// resolve validates the enums and the scenario up front and converts the
// scenario to its linear internal form.
func resolve(p Protocol, b Bound, s Scenario) (protocols.Scenario, error) {
	if err := validateEnums(p, b); err != nil {
		return protocols.Scenario{}, err
	}
	if err := s.Validate(); err != nil {
		return protocols.Scenario{}, err
	}
	return s.Linear(), nil
}

// SumRate maximizes Ra+Rb over the protocol bound at one scenario, jointly
// optimizing phase durations (the quantity plotted in Fig 3). It leases an
// evaluator from the process-wide pool, so repeated calls hit the cached
// constraint templates; for thousands of scenarios prefer SumRateBatch.
func (e *Engine) SumRate(p Protocol, b Bound, s Scenario) (SumRateResult, error) {
	is, err := resolve(p, b, s)
	if err != nil {
		return SumRateResult{}, err
	}
	// The evaluator outlives the solve: Optimum.Durations aliases its
	// memory until Solve has packed the result.
	ev := protocols.GetEvaluator()
	defer protocols.PutEvaluator(ev)
	v, err := e.cache.Solve(cache.SumRateKey(p, b, s.PowerDB, s.GabDB, s.GarDB, s.GbrDB),
		func() (protocols.Optimum, error) { return ev.WeightedRate(p, b, is, 1, 1) })
	if err != nil {
		return SumRateResult{}, fmt.Errorf("bicoop: %w", err)
	}
	return SumRateResult{
		Sum:       v.Sum,
		Point:     RatePoint{Ra: v.Ra, Rb: v.Rb},
		Durations: v.Durations(),
	}, nil
}

// SumRateBatch evaluates the bound's optimal sum rate for every scenario.
// The grid is sharded by internal/sweep: fixed-size chunks are pulled by a
// worker pool (the engine's WithWorkers default), each worker holding one
// evaluator leased from the process-wide pool — no per-call spec
// compilation. Every Naive4/HBC LP is a cold solve of its own scenario, so
// results equal single-point SumRate calls and a cached batch bit for bit,
// for every Workers setting, and are returned in input order. On cancellation it returns the contiguous
// prefix of completed results alongside the context error.
func (e *Engine) SumRateBatch(ctx context.Context, p Protocol, b Bound, scenarios []Scenario) ([]SumRateResult, error) {
	if err := validateEnums(p, b); err != nil {
		return nil, err
	}
	for i, s := range scenarios {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("scenario %d: %w", i, err)
		}
	}
	out := make([]SumRateResult, len(scenarios))
	prefix, runErr := sweep.Batch(ctx, p, b, len(scenarios), sweep.Options{Workers: e.poolWorkers(0)}, e.cache,
		func(i int) Scenario { return scenarios[i] },
		func(i int, r sweep.Result) {
			out[i] = SumRateResult{
				Sum:       r.Sum,
				Point:     RatePoint{Ra: r.Ra, Rb: r.Rb},
				Durations: r.Durations,
			}
		})
	if runErr != nil {
		return out[:prefix], fmt.Errorf("bicoop: %w", runErr)
	}
	return out[:prefix], nil
}

// Feasible reports whether a rate pair is within the protocol bound for
// some phase-duration split (an exact LP test, independent of region
// polygon resolution). Negative rates are trivially infeasible.
func (e *Engine) Feasible(p Protocol, b Bound, s Scenario, pt RatePoint) (bool, error) {
	is, err := resolve(p, b, s)
	if err != nil {
		return false, err
	}
	if err := validateRatePoint(pt); err != nil {
		return false, err
	}
	ev := protocols.GetEvaluator()
	defer protocols.PutEvaluator(ev)
	ok, err := ev.Feasible(p, b, is, protocols.RatePair{Ra: pt.Ra, Rb: pt.Rb})
	if err != nil {
		return false, fmt.Errorf("bicoop: %w", err)
	}
	return ok, nil
}

// RunExperiment executes a reproduction experiment and renders its charts,
// tables and findings to w. Quick mode reduces resolutions for fast runs.
// The context bounds the run: cancelling it stops in-flight Monte Carlo
// work within one trial (and analytic sweeps within one chunk).
func (e *Engine) RunExperiment(ctx context.Context, id string, quick bool, seed int64, w io.Writer) error {
	res, err := experiments.Run(ctx, id, experiments.Config{Quick: quick, Seed: seed})
	if err != nil {
		return fmt.Errorf("bicoop: %w", err)
	}
	return res.Render(w)
}

// RunExperimentArtifacts executes a reproduction experiment and writes its
// canonical artifact pair — the full text rendering and the numeric CSV of
// every chart and table — to the two writers. This is the same pipeline the
// repository's golden-file tests pin under internal/experiments/testdata.
func (e *Engine) RunExperimentArtifacts(ctx context.Context, id string, quick bool, seed int64, text, csv io.Writer) error {
	res, err := experiments.Run(ctx, id, experiments.Config{Quick: quick, Seed: seed})
	if err != nil {
		return fmt.Errorf("bicoop: %w", err)
	}
	if err := res.WriteArtifact(text, csv); err != nil {
		return fmt.Errorf("bicoop: %w", err)
	}
	return nil
}
