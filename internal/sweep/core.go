package sweep

// core.go — the workload-generic sharded execution core. Run (the
// evaluator-grid entry point in sweep.go), RegionBatch (region.go) and the
// facade's simulation campaigns all execute through RunCore: an indexed
// point set is split into fixed-size chunks pulled by a worker pool, each
// worker owning private state W supplied by Hooks, with an ordered
// streaming emitter under bounded backpressure.
//
// The contract every workload inherits:
//
//   - chunk claim is one atomic add; chunk boundaries depend only on n and
//     the chunk size, never on Workers, so chunk-local state a workload
//     builds inside do starts at the same indices for every worker count
//     and results stay bit-identical;
//   - emit(start, end) observes completed chunks in strictly ascending
//     order, with at most ~2×workers chunks of results live (ticket
//     semaphore), so streaming consumers hold O(workers) chunks, not the
//     whole point set;
//   - cancellation follows internal/sim's runGate pattern: a
//     context.AfterFunc flips one atomic flag polled per chunk, the pool
//     drains within one chunk per worker, and the contiguous prefix of
//     completed (and emitted) points is reported alongside the context
//     error.

import (
	"context"
	"sync"
	"sync/atomic"
)

// Hooks supplies the per-worker state of a generic sharded run. Every worker
// goroutine owns one W for its lifetime; it is never recreated mid-run. W is
// scratch, not memory: a chunk's results must not depend on what the
// worker evaluated before, so they stay the same whichever worker runs the
// chunk. All fields are optional: a nil NewWorker gives every worker W's
// zero value (stateless workloads such as simulation campaigns pass
// Hooks[struct{}]{}).
type Hooks[W any] struct {
	// NewWorker returns the state one worker owns (e.g. a leased
	// evaluator). Called once per worker goroutine.
	NewWorker func() W
	// CloseWorker releases the state when the worker exits (e.g. returns
	// the evaluator to its pool). Runs even when the run halts early.
	CloseWorker func(W)
}

func (h Hooks[W]) newWorker() W {
	if h.NewWorker != nil {
		return h.NewWorker()
	}
	var zero W
	return zero
}

func (h Hooks[W]) close(w W) {
	if h.CloseWorker != nil {
		h.CloseWorker(w)
	}
}

// CoreOptions tunes a generic run.
type CoreOptions struct {
	// Workers bounds the goroutines evaluating chunks; non-positive means
	// GOMAXPROCS. The worker count affects scheduling only — results are
	// bit-identical for every value.
	Workers int
	// ChunkSize is the number of consecutive points one worker evaluates
	// per claim; non-positive means ChunkSize (64). Pick it per workload —
	// 1 for heavyweight points like whole simulation runs — but never
	// derive it from Workers: chunk boundaries are the checkpoint granules,
	// so resumability and determinism across worker counts depend on them
	// being fixed.
	ChunkSize int
	// Start resumes a run: points [0, Start) are assumed already evaluated
	// and emitted by an earlier run, so neither do nor emit sees them.
	// Start is floored to a chunk boundary (any watermark a Checkpointer
	// saved already is one); the returned prefix still counts from 0 and
	// includes the skipped points.
	Start int
	// Checkpoint, when non-nil, persists the emitter's watermark — the
	// contiguous emitted point prefix. It is saved once per Workers
	// emitted chunks (after every chunk with one worker), at chunk
	// boundaries that depend on n, ChunkSize and Workers alone, never on
	// timing. The final watermark (or a halted run's emitted prefix) is
	// always saved, saved values strictly increase, and a crash loses at
	// most Workers chunks of emitted results past the last save. A Save
	// error halts the run like an emit error. Feed the last saved value
	// back as Start to resume.
	Checkpoint Checkpointer
}

func (o CoreOptions) workers() int {
	return Options{Workers: o.Workers}.workers()
}

func (o CoreOptions) chunkSize() int {
	if o.ChunkSize > 0 {
		return o.ChunkSize
	}
	return ChunkSize
}

// RunCore evaluates n indexed points with per-worker state W. do(w, start,
// end) evaluates the contiguous chunk [start, end) and must write its
// results into caller-owned, index-addressed storage; emit(start, end), when
// non-nil, is invoked for completed chunks in strictly ascending order (the
// streaming sink). A do or emit error, or context cancellation, halts the
// run within one chunk per worker.
//
// Failures are contained per chunk: a do error (including a recovered
// workload panic, surfaced as a *PanicError) is reported as a *ChunkError.
// opts.Start resumes past an already-emitted prefix and opts.Checkpoint
// persists the emitted watermark, one Save per Workers emitted chunks (see
// CoreOptions).
//
// RunCore returns the length of the contiguous prefix of points whose chunks
// completed (and, when emit is set, were emitted) without error — n on
// success — plus the first error in enumeration order, with context errors
// taking precedence.
func RunCore[W any](ctx context.Context, n int, opts CoreOptions, hooks Hooks[W], do func(w W, start, end int) error, emit func(start, end int) error) (int, error) {
	if n <= 0 {
		return 0, ctxErr(ctx)
	}
	cs := opts.chunkSize()
	nChunks := (n + cs - 1) / cs
	startChunk := 0
	if opts.Start > 0 {
		if opts.Start >= n {
			// The watermark already covers every point; nothing to run.
			return n, ctxErr(ctx)
		}
		// Resume point: floor to a chunk boundary so the skipped prefix is
		// exactly a set of whole chunks (saved watermarks already are).
		startChunk = opts.Start / cs
	}
	workers := opts.workers()
	if workers > nChunks-startChunk {
		workers = nChunks - startChunk
	}
	if workers <= 1 {
		return runCoreSequential(ctx, n, nChunks, cs, startChunk, opts, hooks, do, emit)
	}

	var halted atomic.Bool
	haltCh := make(chan struct{})
	var haltOnce sync.Once
	halt := func() {
		haltOnce.Do(func() {
			halted.Store(true)
			close(haltCh)
		})
	}
	stop := func() bool { return false }
	if ctx != nil && ctx.Done() != nil {
		stop = context.AfterFunc(ctx, halt)
	}
	defer stop()

	// tickets bounds how far computation may run ahead of the emitter: a
	// worker takes one ticket per chunk claim and the emitter returns it
	// once the chunk has been streamed (or skipped past an error). This
	// caps the reorder buffer — and with it the caller's live per-chunk
	// result storage — at window chunks instead of the whole point set.
	window := 2 * workers
	if window < 4 {
		window = 4
	}
	if window > nChunks-startChunk {
		window = nChunks - startChunk
	}
	tickets := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		tickets <- struct{}{}
	}

	var next atomic.Int64
	next.Store(int64(startChunk))
	chunkErr := make([]error, nChunks)
	completions := make(chan int, nChunks-startChunk)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := hooks.newWorker()
			defer hooks.close(st)
			for {
				select {
				case <-tickets:
				case <-haltCh:
					return
				}
				c := int(next.Add(1)) - 1
				if c >= nChunks {
					return
				}
				lo, hi := chunkBoundsOf(c, n, cs)
				// A failed chunk may leave st in any state, and the worker
				// keeps it: every chunk it claims later has a higher index,
				// and the emitter stops at the first failed chunk, so
				// nothing computed from that state reaches the output.
				if err := runChunk(do, st, c, lo, hi); err != nil {
					chunkErr[c] = err
					halt()
				}
				completions <- c
			}
		}()
	}
	go func() {
		wg.Wait()
		close(completions)
	}()

	// The calling goroutine is the emitter: it advances a cursor over the
	// completed-chunk set and streams ready chunks in order, halting the
	// pool on an emit error but always draining it. Each advanced chunk
	// returns its backpressure ticket; ticket sends cannot block because at
	// most window claims are outstanding. (After a halt the remaining
	// tickets are irrelevant — workers exit via haltCh.)
	//
	// The checkpoint is saved right after every chunk whose index+1 is a
	// multiple of workers is emitted — one save per round of the pool, as
	// the sequential path saves once per chunk — and once more after the
	// pool has drained if the cursor moved past the last save, so the final
	// watermark (or a halted run's emitted prefix) is always saved. Which
	// watermarks are saved depends on the chunk range and workers alone,
	// never on the order or pace of completions: a cadence keyed to the
	// completion queue would save more often whenever a Save is fast
	// against a chunk, so a job's cost would swing with the disk.
	done := make([]bool, nChunks)
	nextEmit := startChunk
	savedEmit := startChunk
	emitting := emit != nil
	var ckErr error
	for c := range completions {
		done[c] = true
		for nextEmit < nChunks && done[nextEmit] && chunkErr[nextEmit] == nil {
			if emitting {
				lo, hi := chunkBoundsOf(nextEmit, n, cs)
				if err := emit(lo, hi); err != nil {
					chunkErr[nextEmit] = err
					halt()
					emitting = false
					break
				}
			}
			nextEmit++
			tickets <- struct{}{}
			if nextEmit%workers == 0 && opts.Checkpoint != nil && ckErr == nil {
				savedEmit = nextEmit
				if err := opts.Checkpoint.Save(watermarkOf(nextEmit, n, cs)); err != nil {
					ckErr = err
					halt()
				}
			}
		}
	}
	if nextEmit > savedEmit && opts.Checkpoint != nil && ckErr == nil {
		ckErr = opts.Checkpoint.Save(watermarkOf(nextEmit, n, cs))
	}

	prefix := watermarkOf(nextEmit, n, cs)
	if err := ctxErr(ctx); err != nil {
		return prefix, err
	}
	for _, err := range chunkErr {
		if err != nil {
			return prefix, err
		}
	}
	return prefix, ckErr
}

// watermarkOf converts an emitted-chunk cursor to the emitted point prefix.
func watermarkOf(nextEmit, n, cs int) int {
	w := nextEmit * cs
	if w > n {
		w = n
	}
	return w
}

// runCoreSequential is the single-worker path: same chunk boundaries and
// failure handling as the pool, so its outputs are bit-identical, without
// goroutine or channel overhead.
func runCoreSequential[W any](ctx context.Context, n, nChunks, cs, startChunk int, opts CoreOptions, hooks Hooks[W], do func(w W, start, end int) error, emit func(start, end int) error) (int, error) {
	st := hooks.newWorker()
	defer hooks.close(st)
	for c := startChunk; c < nChunks; c++ {
		if err := ctxErr(ctx); err != nil {
			return c * cs, err
		}
		lo, hi := chunkBoundsOf(c, n, cs)
		if err := runChunk(do, st, c, lo, hi); err != nil {
			return lo, err
		}
		if emit != nil {
			if err := emit(lo, hi); err != nil {
				return lo, err
			}
		}
		if opts.Checkpoint != nil {
			if err := opts.Checkpoint.Save(watermarkOf(c+1, n, cs)); err != nil {
				return watermarkOf(c+1, n, cs), err
			}
		}
	}
	return n, nil
}

func chunkBoundsOf(c, n, cs int) (lo, hi int) {
	lo = c * cs
	hi = lo + cs
	if hi > n {
		hi = n
	}
	return lo, hi
}
