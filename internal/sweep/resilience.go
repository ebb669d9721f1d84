package sweep

// resilience.go — the fault-tolerance layer of the generic core. RunCore's
// original contract killed the whole process on a workload panic and lost
// the whole run to one failed chunk; long campaigns (rare-event outage
// sweeps at 1e-9 tail probabilities, multi-hour region batches) and the
// planned network dispatcher need chunks to survive failure instead. Three
// mechanisms, all preserving the bit-identical-across-Workers guarantee:
//
//   - panic containment: every do invocation runs under a recover that
//     converts a workload panic into a *PanicError, surfaced (like any do
//     error) inside a *ChunkError instead of crashing the process;
//   - retry with backoff: CoreOptions.Retry re-runs failed chunks whose
//     error the policy classifies transient, after tearing down and
//     recreating the worker's state W through the run's Hooks — a retried
//     chunk starts from exactly the fresh state a first attempt gets, so
//     retries cannot perturb results. Backoff is capped exponential with
//     deterministic jitter derived from the chunk index;
//   - checkpointing: CoreOptions.Checkpoint observes the ordered emitter's
//     watermark (the contiguous emitted point prefix) as it advances, and
//     CoreOptions.Start resumes a later run past a saved watermark — the
//     prefix-on-cancel semantics make the watermark exactly the safe
//     resume point.

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"
)

// ChunkError reports the failure of one chunk of a sharded run: which chunk,
// its point range, how many attempts it was given, and the underlying error
// (a *PanicError when the workload panicked). It unwraps to Err, so
// errors.Is/As see through it.
type ChunkError struct {
	// Chunk is the chunk index; Start and End delimit its points [Start, End).
	Chunk, Start, End int
	// Attempt is the 1-based attempt count at which the chunk gave up.
	Attempt int
	// Err is the underlying do error.
	Err error
}

func (e *ChunkError) Error() string {
	return fmt.Sprintf("chunk %d [%d,%d) attempt %d: %v", e.Chunk, e.Start, e.End, e.Attempt, e.Err)
}

func (e *ChunkError) Unwrap() error { return e.Err }

// PanicError is a workload panic captured by the worker loop's recover. It
// surfaces inside a *ChunkError; the process stays alive.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("worker panic: %v", e.Value) }

// RetryPolicy re-runs failed chunks. The zero value retries every transient
// failure up to DefaultMaxAttempts with no backoff delay.
type RetryPolicy struct {
	// MaxAttempts caps total attempts per chunk, the first try included;
	// non-positive means DefaultMaxAttempts (3), 1 means fail fast.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry, doubled per further
	// attempt and capped at MaxDelay; zero retries immediately. Each delay
	// is stretched by a deterministic jitter fraction derived from the
	// chunk index, so colliding retries decorrelate reproducibly.
	BaseDelay, MaxDelay time.Duration
	// IsTransient classifies retryable errors; nil treats every error as
	// transient. Context cancellation and deadline errors are never
	// retried, regardless of the classifier.
	IsTransient func(error) bool
}

// DefaultMaxAttempts is the per-chunk attempt cap of a RetryPolicy that
// leaves MaxAttempts unset.
const DefaultMaxAttempts = 3

func (p *RetryPolicy) maxAttempts() int {
	if p.MaxAttempts > 0 {
		return p.MaxAttempts
	}
	return DefaultMaxAttempts
}

// retryable reports whether err warrants another attempt: a run being torn
// down by its context never retries, everything else asks the classifier.
func (p *RetryPolicy) retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if p.IsTransient == nil {
		return true
	}
	return p.IsTransient(err)
}

// delay returns the backoff before retrying chunk c after failed attempt
// a (1-based): BaseDelay << (a-1), capped at MaxDelay, stretched by a
// deterministic jitter in [1.0, 1.5) derived from (c, a). A pure function
// of its arguments — reproducible run to run, worker count to worker count.
func (p *RetryPolicy) delay(c, a int) time.Duration {
	if p.BaseDelay <= 0 {
		return 0
	}
	d := p.BaseDelay
	for i := 1; i < a && d < (1<<62); i++ {
		d *= 2
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	// Jitter fraction in [0, 0.5) from a splitmix64 finalizer over (c, a).
	h := splitmix64(uint64(c)*0x9E3779B97F4A7C15 + uint64(a))
	frac := float64(h>>11) / float64(1<<53) // [0, 1)
	return d + time.Duration(float64(d)*frac/2)
}

// splitmix64 is the standard splitmix64 finalizer: a cheap, well-mixed hash
// used for deterministic jitter and by the chaos injector's fault draws.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Checkpointer persists the ordered emitter's watermark — the contiguous
// prefix of points emitted without error. Save observes strictly increasing
// watermarks from the single emitter goroutine (implementations need no
// locking against the run itself); feeding the last saved value back as
// CoreOptions.Start resumes a later run past the already-emitted prefix. A
// Save error halts the run like an emit error.
type Checkpointer interface {
	Save(watermark int) error
}

// runChunkOnce runs one attempt of do under panic containment: a workload
// panic becomes a *PanicError instead of killing the process.
func runChunkOnce[W any](do func(W, int, int) error, w W, lo, hi int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return do(w, lo, hi)
}

// runChunkAttempts evaluates chunk c with the retry policy: between
// attempts it tears down and recreates the worker state *st through hooks,
// so a retry never sees what a failed attempt left behind and the
// bit-identical-across-Workers guarantee holds through failures. Returns
// nil on success, or the final attempt's *ChunkError.
func runChunkAttempts[W any](ctx context.Context, hooks Hooks[W], st *W, retry *RetryPolicy, c, lo, hi int, do func(W, int, int) error) error {
	for attempt := 1; ; attempt++ {
		err := runChunkOnce(do, *st, lo, hi)
		if err == nil {
			return nil
		}
		cerr := &ChunkError{Chunk: c, Start: lo, End: hi, Attempt: attempt, Err: err}
		if retry == nil || attempt >= retry.maxAttempts() || !retry.retryable(err) || ctxErr(ctx) != nil {
			return cerr
		}
		// The failed attempt may have left W in an arbitrary state (it may
		// have panicked mid-update); recreate it from scratch.
		hooks.close(*st)
		*st = hooks.newWorker()
		if !sleepCtx(ctx, retry.delay(c, attempt)) {
			return cerr
		}
	}
}

// sleepCtx waits d unless the context ends first; reports whether the full
// delay elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-done:
		return false
	}
}
