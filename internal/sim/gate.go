package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// progressStride is the trial granularity at which workers publish their
// local completion counts to the shared run counter (and, through it, to the
// Progress callback). Batching keeps the per-trial cost at one atomic flag
// load; the callback never lags the true count by more than one stride per
// worker.
const progressStride = 32

// runGate coordinates a sharded Monte Carlo run across its worker pool: it
// turns context cancellation into a single atomic flag the workers poll once
// per trial (an uncontended load, so cancellation support adds no measurable
// per-trial overhead and no allocation), and it aggregates per-worker
// completion counts for the optional progress callback.
//
// The flag is set by a context.AfterFunc rather than polled via ctx.Err(),
// so the hot loop never touches the context's mutex. A cancelled run stops
// within one trial per worker — far finer than the shard (per-worker trial
// share) granularity.
type runGate struct {
	halted atomic.Bool
	total  int
	// mu serializes the cumulative count update and the callback invocation
	// as one critical section, so observers see a strictly increasing done
	// count. It is only touched when a progress callback is configured, and
	// then only once per stride.
	mu       sync.Mutex
	done     int
	progress func(done, total int)
}

// shardTrials is the one worker pool of every simulator in this package.
// It runs trials Monte Carlo trials on workers goroutines (non-positive
// means GOMAXPROCS; never more goroutines than trials). Worker wi owns the
// state newWorker builds from the seed Seed + wi*workerSeedStride and runs
// trials*(wi+1)/workers - trials*wi/workers of the trials through trial,
// under one runGate: cancelling ctx stops every worker within one trial,
// and progress sees the run-wide count. Worker 0 of any pool replays the
// single-worker stream, and outcomes are a pure function of (seed, trials,
// workers).
//
// shardTrials returns every worker's state in worker order, for the
// caller's merge, and the first worker error in worker order (a failed
// worker's state is the zero W). It does not check ctx after the drain:
// callers merge the partial counts first, then report CtxErr.
func shardTrials[W any](ctx context.Context, trials, workers int, seed int64, progress func(done, total int),
	newWorker func(seed int64) (W, error), trial func(W) error) ([]W, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}
	g := &runGate{total: trials, progress: progress}
	if ctx != nil && ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { g.halted.Store(true) })
		defer stop()
	}
	parts := make([]W, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		count := trials*(wi+1)/workers - trials*wi/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk, err := newWorker(seed + int64(wi)*workerSeedStride)
			if err != nil {
				errs[wi] = err
				return
			}
			parts[wi] = wk
			_, errs[wi] = g.run(count, func() error { return trial(wk) })
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return parts, err
		}
	}
	return parts, nil
}

// run executes up to count trials on the calling goroutine, stopping early
// once the gate halts or trial returns an error. It returns the number of
// trials completed. Progress (when configured) is invoked at stride
// granularity with the run-wide cumulative count; invocations are
// serialized and the count is strictly increasing across them.
func (g *runGate) run(count int, trial func() error) (int, error) {
	completed, pending := 0, 0
	for i := 0; i < count; i++ {
		if g.halted.Load() {
			break
		}
		if err := trial(); err != nil {
			g.flush(&pending)
			return completed, err
		}
		completed++
		pending++
		if pending == progressStride {
			g.flush(&pending)
		}
	}
	g.flush(&pending)
	return completed, nil
}

// flush publishes a worker's locally accumulated trial count.
func (g *runGate) flush(pending *int) {
	if *pending == 0 || g.progress == nil {
		*pending = 0
		return
	}
	g.mu.Lock()
	g.done += *pending
	*pending = 0
	g.progress(g.done, g.total)
	g.mu.Unlock()
}

// CtxErr returns a non-nil error when the context has ended — the shared
// post-drain check of every sharded runner, here and in internal/sweep. The
// result always matches errors.Is(err, ctx.Err()) (so context.Canceled /
// DeadlineExceeded checks work at any layer) and additionally wraps a
// distinct cancellation cause (context.WithCancelCause) when one was
// supplied.
func CtxErr(ctx context.Context) error {
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
