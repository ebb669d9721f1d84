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
// Batch, Sweep): each worker leases one protocols.Evaluator, whose results
// never depend on the solves before them. region.go instantiates it for
// rate-region support sweeps; the facade instantiates it (stateless) for
// simulation campaigns.
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
	"sync"

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

// Pool supplies worker evaluators. Implementations must be safe for
// concurrent use; the facade's Engine plugs its own sync.Pool in so sweeps
// share evaluators with the rest of the session.
type Pool interface {
	Get() *protocols.Evaluator
	Put(*protocols.Evaluator)
}

// pkgPool backs runs that do not bring their own pool (the experiments
// harness).
var pkgPool = sync.Pool{New: func() any { return protocols.NewEvaluator() }}

type defaultPool struct{}

func (defaultPool) Get() *protocols.Evaluator   { return pkgPool.Get().(*protocols.Evaluator) }
func (defaultPool) Put(ev *protocols.Evaluator) { pkgPool.Put(ev) }

// Options tunes a run.
type Options struct {
	// Workers bounds the goroutines evaluating chunks; non-positive means
	// GOMAXPROCS. The worker count affects scheduling only — results are
	// bit-identical for every value.
	Workers int
	// Pool supplies worker evaluators; nil uses a package-level pool.
	Pool Pool
	// Start resumes a run past an already-emitted point prefix; Checkpoint
	// persists the emitted watermark as it advances. Both are forwarded to
	// the core verbatim — see CoreOptions.
	Start      int
	Checkpoint Checkpointer
	// Cache, when non-nil, serves already-solved points from the
	// scenario-keyed result store and fills it on misses. Every solve is
	// a position-independent cold solve, so cached results are
	// bit-identical to a cache-off run of the same points and to the
	// facade's single-point solves, at every worker count.
	Cache *cache.Store
}

func (o Options) pool() Pool {
	if o.Pool != nil {
		return o.Pool
	}
	return defaultPool{}
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
// contiguous chunk [start, end) with the worker's pooled evaluator and must
// write its results into caller-owned, index-addressed storage; emit(start,
// end), when non-nil, is invoked for completed chunks in strictly ascending
// order — the streaming sink. A do or emit error, or context cancellation,
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
	pool := opts.pool()
	hooks := Hooks[*protocols.Evaluator]{NewWorker: pool.Get, CloseWorker: pool.Put}
	return RunCore(ctx, n, core, hooks, do, emit)
}
