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
// grid.go instantiates the core for the evaluator-grid workloads (Sweep and
// Batch, ChunkSize points per chunk) and region.go for rate-region curves
// (one curve per chunk): each worker leases one protocols.Evaluator from
// the process-wide pool (evaluatorHooks), whose results never depend on the
// solves before them. Every grid point and region direction is one
// cache.(*Store).Solve call on the store passed in, which is nil with
// caching off, so cached and uncached runs share one kernel. The facade
// and internal/experiments instantiate the core (stateless, one run per
// chunk) for simulation campaigns.
//
// Cancellation follows internal/sim's runGate pattern: a context.AfterFunc
// flips one flag the workers check before each chunk, so an uncancelled run
// never touches the context's mutex on the hot path and a cancelled one
// stops within a chunk. The contiguous prefix of completed points is
// reported alongside the context error, so callers can return partial
// results.
package sweep

import (
	"runtime"

	"bicoop/internal/protocols"
)

// ChunkSize is the chunk size of the evaluator grids (Sweep, Batch): the
// number of consecutive points one worker evaluates per claim. It is a
// fixed constant — never derived from the worker count — so
// chunk boundaries (and with them the checkpoint watermarks) are identical
// no matter how many workers run. 64 points
// amortize the claim cost while keeping cancellation latency and tail
// imbalance to a few milliseconds of work.
const ChunkSize = 64

// Options tunes a run of RunCore and of every workload built on it.
type Options struct {
	// Workers bounds the goroutines evaluating chunks; non-positive means
	// GOMAXPROCS. The worker count affects scheduling only — results are
	// bit-identical for every value.
	Workers int
	// Start resumes a run: points [0, Start) are assumed already evaluated
	// and emitted by an earlier run, so neither do nor emit sees them.
	// Start is floored to a chunk boundary (any watermark a Checkpointer
	// saved already is one); the returned prefix still counts from 0 and
	// includes the skipped points.
	Start int
	// Checkpoint, when non-nil, persists the emitter's watermark — the
	// contiguous emitted point prefix. It is saved once per Workers
	// emitted chunks (after every chunk with one worker), at chunk
	// boundaries that depend on n, the chunk size and Workers alone, never
	// on timing. The final watermark (or a halted run's emitted prefix) is
	// always saved, saved values strictly increase, and a crash loses at
	// most Workers chunks of emitted results past the last save. A Save
	// error halts the run like an emit error. Feed the last saved value
	// back as Start to resume.
	Checkpoint Checkpointer
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// evaluatorHooks leases each worker one evaluator from the process-wide
// pool for the run.
var evaluatorHooks = Hooks[*protocols.Evaluator]{NewWorker: protocols.GetEvaluator, CloseWorker: protocols.PutEvaluator}
