// Package sweep is the sharded execution core behind the facade's batch,
// sweep, region and campaign APIs and the figure harness in
// internal/experiments. The workload-generic machinery lives in RunCore
// (core.go): an indexed point set is split into fixed-size chunks pulled by
// a worker pool, each worker owning private state supplied by Hooks. The
// numbers a chunk produces depend only on the chunk itself — results are
// bit-identical for every worker count, and the streaming emit callback
// observes points in strict enumeration order regardless of completion
// order.
//
// This file instantiates the core for the evaluator-grid workloads (Run,
// Batch, Sweep): each worker leases one protocols.Evaluator from the
// process-wide pool (protocols.GetEvaluator), whose results never depend on
// the solves before them. Every grid point is one cache.(*Store).Solve call
// on Options.Cache, which is nil with caching off, so cached and uncached
// runs share one kernel. region.go instantiates the core for rate-region
// support sweeps; the facade instantiates it (stateless) for simulation
// campaigns.
//
// Cancellation follows internal/sim's runGate pattern: a context.AfterFunc
// flips one atomic flag the workers poll per chunk, so an uncancelled run
// never touches the context's mutex on the hot path and a cancelled one
// stops within a chunk. The contiguous prefix of completed points is
// reported alongside the context error, so callers can return partial
// results.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"bicoop/internal/cache"
	"bicoop/internal/protocols"
)

// ChunkSize is the number of consecutive points one worker evaluates per
// claim. It is a fixed constant — never derived from the worker count — so
// chunk boundaries (and with them the checkpoint watermarks) are identical
// no matter how many workers run. 64 points
// amortize the claim cost while keeping cancellation latency and tail
// imbalance to a few milliseconds of work.
const ChunkSize = 64

// Options tunes a run.
type Options struct {
	// Workers bounds the goroutines evaluating chunks; non-positive means
	// GOMAXPROCS. The worker count affects scheduling only — results are
	// bit-identical for every value.
	Workers int
	// Start resumes a run past an already-emitted point prefix; Checkpoint
	// persists the emitted watermark as it advances. Both are forwarded to
	// the core verbatim — see CoreOptions.
	Start      int
	Checkpoint Checkpointer
	// Cache is the result store every point is solved through
	// (cache.(*Store).Solve): hits are served from it and misses fill it.
	// Nil turns caching off — every point is solved, nothing is stored.
	// Every solve is a position-independent cold solve, so cached results
	// are bit-identical to a cache-off run of the same points and to the
	// facade's single-point solves, at every worker count.
	Cache *cache.Store
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ctxErr mirrors internal/sim's post-drain context check: the result always
// satisfies errors.Is(err, ctx.Err()) and additionally wraps a distinct
// cancellation cause when one was supplied.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	err := ctx.Err()
	if err == nil {
		return nil
	}
	if cause := context.Cause(ctx); cause != nil && !errors.Is(cause, err) {
		return fmt.Errorf("%w: %w", err, cause)
	}
	return err
}

// Run evaluates n indexed points. do(ev, start, end) evaluates the
// contiguous chunk [start, end) with the worker's evaluator, leased from the
// process-wide pool, and must write its results into caller-owned,
// index-addressed storage; emit(start, end), when non-nil, is invoked for
// completed chunks in strictly ascending order — the streaming sink. A do or emit error, or context cancellation,
// halts the run within one chunk per worker.
//
// Run returns the length of the contiguous prefix of points whose chunks
// completed (and, when emit is set, were emitted) without error — n on
// success — plus the first error in enumeration order, with context errors
// taking precedence. It is the evaluator-typed instantiation of RunCore.
func Run(ctx context.Context, n int, opts Options, do func(ev *protocols.Evaluator, start, end int) error, emit func(start, end int) error) (int, error) {
	core := CoreOptions{
		Workers:    opts.Workers,
		Start:      opts.Start,
		Checkpoint: opts.Checkpoint,
	}
	hooks := Hooks[*protocols.Evaluator]{NewWorker: protocols.GetEvaluator, CloseWorker: protocols.PutEvaluator}
	return RunCore(ctx, n, core, hooks, do, emit)
}
