package sweep

// core.go — the workload-generic sharded execution core. Sweep and Batch
// (grid.go), RegionBatch (region.go) and the simulation campaigns of the
// facade and internal/experiments all execute through RunCore: an indexed
// point set is split into fixed-size chunks pulled by a worker pool, each
// worker owning private state W supplied by Hooks, with an ordered
// streaming emitter under bounded backpressure. The pool is the only path:
// one worker runs the same emitter, checkpoint cadence and halt rules as
// many.
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
//     error. A context already done at the call runs nothing.

import (
	"context"
	"sync/atomic"

	"bicoop/internal/sim"
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

// RunCore evaluates n indexed points with per-worker state W, in chunks of
// chunkSize consecutive points (positive). Pick the chunk size per workload
// — 1 for heavyweight points like whole curves or simulation runs — but
// never derive it from Workers: chunk boundaries are the checkpoint
// granules, so resumability and determinism across worker counts depend on
// them being fixed. do(w, start, end) evaluates the contiguous chunk
// [start, end) and must write its
// results into caller-owned, index-addressed storage; emit(start, end), when
// non-nil, is invoked for completed chunks in strictly ascending order (the
// streaming sink). A do or emit error, or context cancellation, halts the
// run within one chunk per worker.
//
// Failures are contained per chunk: a do error (including a recovered
// workload panic, surfaced as a *PanicError) is reported as a *ChunkError.
// opts.Start resumes past an already-emitted prefix and opts.Checkpoint
// persists the emitted watermark, one Save per Workers emitted chunks (see
// Options).
//
// RunCore returns the length of the contiguous prefix of points whose chunks
// completed (and, when emit is set, were emitted) without error — n on
// success — plus the first error in enumeration order, with context errors
// taking precedence.
func RunCore[W any](ctx context.Context, n, chunkSize int, opts Options, hooks Hooks[W], do func(w W, start, end int) error, emit func(start, end int) error) (int, error) {
	if n <= 0 {
		return 0, sim.CtxErr(ctx)
	}
	cs := chunkSize
	nChunks := (n + cs - 1) / cs
	startChunk := 0
	if opts.Start > 0 {
		if opts.Start >= n {
			// The watermark already covers every point; nothing to run.
			return n, sim.CtxErr(ctx)
		}
		// Resume point: floor to a chunk boundary so the skipped prefix is
		// exactly a set of whole chunks (saved watermarks already are).
		startChunk = opts.Start / cs
	}
	if err := sim.CtxErr(ctx); err != nil {
		return startChunk * cs, err
	}
	workers := opts.workers()
	if workers > nChunks-startChunk {
		workers = nChunks - startChunk
	}

	p := &corePool{haltCh: make(chan struct{})}
	p.next.Store(int64(startChunk))
	if ctx != nil && ctx.Done() != nil {
		stop := context.AfterFunc(ctx, p.halt)
		defer stop()
	}

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

	// A worker records a failed chunk's error before it sends the chunk's
	// index on completions; only the emitter touches done. completions also
	// carries one -1 from every worker as it exits, after its CloseWorker,
	// and its buffer holds every message, so no send blocks.
	chunks := make([]chunkState, nChunks)
	completions := make(chan int, nChunks-startChunk+workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { completions <- -1 }()
			st := hooks.newWorker()
			defer hooks.close(st)
			for {
				select {
				case <-tickets:
				case <-p.haltCh:
					return
				}
				// A ticket and the halt may be ready together; the halt
				// wins, so a halted pool claims no further chunk.
				if p.halted.Load() {
					return
				}
				c := int(p.next.Add(1)) - 1
				if c >= nChunks {
					return
				}
				lo, hi := chunkBoundsOf(c, n, cs)
				// A failed chunk may leave st in any state, and the worker
				// keeps it: every chunk it claims later has a higher index,
				// and the emitter stops at the first failed chunk, so
				// nothing computed from that state reaches the output.
				if err := runChunk(do, st, c, lo, hi); err != nil {
					chunks[c].err = err
					p.halt()
				}
				completions <- c
			}
		}()
	}

	// The calling goroutine is the emitter: it advances a cursor over the
	// completed-chunk set and streams ready chunks in order, halting the
	// pool on an emit error but always draining it. Each advanced chunk
	// returns its backpressure ticket; ticket sends cannot block because at
	// most window claims are outstanding. (After a halt the remaining
	// tickets are irrelevant — workers exit via haltCh.)
	//
	// The checkpoint is saved right after every chunk whose index+1 is a
	// multiple of workers is emitted — one save per round of the pool, so
	// one worker saves after every chunk — and once more after the
	// pool has drained if the cursor moved past the last save, so the final
	// watermark (or a halted run's emitted prefix) is always saved. Which
	// watermarks are saved depends on the chunk range and workers alone,
	// never on the order or pace of completions: a cadence keyed to the
	// completion queue would save more often whenever a Save is fast
	// against a chunk, so a job's cost would swing with the disk.
	nextEmit := startChunk
	savedEmit := startChunk
	emitting := emit != nil
	var ckErr error
	for live := workers; live > 0; {
		c := <-completions
		if c < 0 {
			live--
			continue
		}
		chunks[c].done = true
		for nextEmit < nChunks && chunks[nextEmit].done && chunks[nextEmit].err == nil {
			if emitting {
				lo, hi := chunkBoundsOf(nextEmit, n, cs)
				if err := emit(lo, hi); err != nil {
					chunks[nextEmit].err = err
					p.halt()
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
					p.halt()
				}
			}
		}
	}
	if nextEmit > savedEmit && opts.Checkpoint != nil && ckErr == nil {
		ckErr = opts.Checkpoint.Save(watermarkOf(nextEmit, n, cs))
	}

	prefix := watermarkOf(nextEmit, n, cs)
	if err := sim.CtxErr(ctx); err != nil {
		return prefix, err
	}
	for _, st := range chunks {
		if st.err != nil {
			return prefix, st.err
		}
	}
	return prefix, ckErr
}

// corePool is the state a RunCore call's workers and emitter share, in one
// allocation.
type corePool struct {
	halted atomic.Bool
	haltCh chan struct{} // closed by the first halt
	next   atomic.Int64  // the next unclaimed chunk
}

// halt stops the pool: once it returns, no worker claims another chunk.
// Any goroutine may call it, any number of times.
func (p *corePool) halt() {
	if p.halted.CompareAndSwap(false, true) {
		close(p.haltCh)
	}
}

// chunkState is one chunk's outcome: whether the emitter has seen it
// complete, and its do or emit error.
type chunkState struct {
	err  error
	done bool
}

// watermarkOf converts an emitted-chunk cursor to the emitted point prefix.
func watermarkOf(nextEmit, n, cs int) int {
	w := nextEmit * cs
	if w > n {
		w = n
	}
	return w
}

func chunkBoundsOf(c, n, cs int) (lo, hi int) {
	lo = c * cs
	hi = lo + cs
	if hi > n {
		hi = n
	}
	return lo, hi
}
