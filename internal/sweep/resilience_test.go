package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bicoop/internal/protocols"
	"bicoop/internal/sweep/chaos"
)

// resilienceWorkers are the worker counts every resilience pin runs at: the
// sequential path, a small pool, and a pool wider than the chunk window.
var resilienceWorkers = []int{1, 2, 7}

// TestRunCoreChaosBitIdentical is the headline resilience pin: a run with
// ~20% injected transient chunk faults, retried through the policy with
// per-retry worker-state teardown, completes with results == to a fault-free
// run at every worker count. A failed attempt poisons its worker state and
// the workload refuses poisoned state, so any retry that reused the failed
// attempt's state would fail the run instead of completing it.
func TestRunCoreChaosBitIdentical(t *testing.T) {
	const n, cs = 40*8 + 5, 8
	run := func(workers int, inj *chaos.Injector) ([]int, error) {
		out := make([]int, n)
		// W is a per-worker counter the workload restarts at every chunk:
		// each point records its position within the chunk, so results
		// expose the chunk boundaries. -1 marks state a failed attempt
		// left behind.
		hooks := Hooks[*int]{NewWorker: func() *int { return new(int) }}
		do := func(w *int, lo, hi int) error {
			if *w < 0 {
				return errors.New("retry reused a failed attempt's worker state")
			}
			*w = 0
			for i := lo; i < hi; i++ {
				*w++
				out[i] = i*1000 + *w
			}
			return nil
		}
		if inj != nil {
			faulty := chaos.Wrap(inj, do)
			do = func(w *int, lo, hi int) error {
				err := faulty(w, lo, hi)
				if err != nil {
					*w = -1
				}
				return err
			}
		}
		prefix, err := RunCore(context.Background(), n, CoreOptions{
			Workers:   workers,
			ChunkSize: cs,
			Retry:     &RetryPolicy{MaxAttempts: 3, IsTransient: chaos.Transient},
		}, hooks, do, nil)
		if err == nil && prefix != n {
			t.Fatalf("workers=%d: prefix=%d, want %d", workers, prefix, n)
		}
		return out, err
	}

	clean, err := run(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range resilienceWorkers {
		inj := &chaos.Injector{Seed: 7, TransientRate: 0.2}
		got, err := run(workers, inj)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, clean) {
			t.Fatalf("workers=%d: chaos run differs from fault-free run", workers)
		}
	}
}

// TestRunChaosWarmEvaluators runs the real pooled-evaluator workload (HBC
// LPs, evaluators leased and reused across chunks) under injected faults
// and pins bit-identical results: a retried chunk recreates its evaluator
// through the hooks, and a reused evaluator's results never depend on the
// solves before them.
func TestRunChaosWarmEvaluators(t *testing.T) {
	scen := testScenarios(3*ChunkSize + 11)
	type opt3 struct{ Sum, Ra, Rb float64 }
	run := func(workers int, inj *chaos.Injector) []opt3 {
		t.Helper()
		out := make([]opt3, len(scen))
		do := func(ev *protocols.Evaluator, lo, hi int) error {
			var memo scenarioMemo
			for i := lo; i < hi; i++ {
				opt, err := ev.WeightedRate(protocols.HBC, protocols.BoundInner, memo.internal(scen[i]), 1, 1)
				if err != nil {
					return err
				}
				out[i] = opt3{Sum: opt.Objective, Ra: opt.Rates.Ra, Rb: opt.Rates.Rb}
			}
			return nil
		}
		opts := Options{Workers: workers}
		if inj != nil {
			do = chaos.Wrap(inj, do)
			opts.Retry = &RetryPolicy{MaxAttempts: 4, IsTransient: chaos.Transient}
		}
		prefix, err := Run(context.Background(), len(scen), opts, do, nil)
		if err != nil || prefix != len(scen) {
			t.Fatalf("workers=%d: prefix=%d err=%v", workers, prefix, err)
		}
		return out
	}
	clean := run(1, nil)
	for _, workers := range resilienceWorkers {
		got := run(workers, &chaos.Injector{Seed: 3, TransientRate: 0.2})
		for i := range clean {
			if got[i] != clean[i] {
				t.Fatalf("workers=%d: point %d differs under chaos: %+v vs %+v", workers, i, got[i], clean[i])
			}
		}
	}
}

// TestRunCorePanicContained pins panic containment: an injected worker panic
// surfaces as a *ChunkError wrapping a *PanicError — the process stays alive
// — and without a retry policy the run halts with the panicking chunk
// identified.
func TestRunCorePanicContained(t *testing.T) {
	const n, cs = 96, 8
	const panicLo = 5 * cs
	for _, workers := range resilienceWorkers {
		inj := &chaos.Injector{Seed: 1, PanicStarts: []int{panicLo}}
		_, err := RunCore(context.Background(), n, CoreOptions{Workers: workers, ChunkSize: cs}, Hooks[struct{}]{},
			chaos.Wrap(inj, func(_ struct{}, lo, hi int) error { return nil }), nil)
		var cerr *ChunkError
		if !errors.As(err, &cerr) {
			t.Fatalf("workers=%d: err = %v, want a *ChunkError", workers, err)
		}
		if cerr.Chunk != panicLo/cs || cerr.Start != panicLo || cerr.Attempt != 1 {
			t.Errorf("workers=%d: ChunkError = %+v, want chunk %d at [%d,...) attempt 1", workers, cerr, panicLo/cs, panicLo)
		}
		var perr *PanicError
		if !errors.As(err, &perr) {
			t.Fatalf("workers=%d: err = %v, want a wrapped *PanicError", workers, err)
		}
		if perr.Value == nil || len(perr.Stack) == 0 {
			t.Errorf("workers=%d: PanicError missing value or stack: %+v", workers, perr)
		}
	}
}

// TestRunCorePanicRetried pins that a panic is just another chunk failure to
// the retry layer: with a policy that classifies it transient, the run
// completes and the results match a fault-free run.
func TestRunCorePanicRetried(t *testing.T) {
	const n, cs = 96, 8
	for _, workers := range resilienceWorkers {
		out := make([]int, n)
		inj := &chaos.Injector{Seed: 1, PanicStarts: []int{0, 5 * cs}}
		prefix, err := RunCore(context.Background(), n, CoreOptions{
			Workers:   workers,
			ChunkSize: cs,
			Retry:     &RetryPolicy{MaxAttempts: 2}, // nil IsTransient: retry everything
		}, Hooks[struct{}]{},
			chaos.Wrap(inj, func(_ struct{}, lo, hi int) error {
				for i := lo; i < hi; i++ {
					out[i] = i + 1
				}
				return nil
			}), nil)
		if err != nil || prefix != n {
			t.Fatalf("workers=%d: prefix=%d err=%v", workers, prefix, err)
		}
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("workers=%d: point %d = %d, want %d", workers, i, v, i+1)
			}
		}
	}
}

// TestRunCorePermanentFaultPrefix pins the halt semantics of a
// non-transient fault under retry: the error identifies the failed chunk
// with one attempt spent, the emitted prefix never passes the failed chunk,
// and the sequential path stops exactly at it.
func TestRunCorePermanentFaultPrefix(t *testing.T) {
	const n, cs = 120, 8
	const permLo = 7 * cs
	for _, workers := range resilienceWorkers {
		inj := &chaos.Injector{Seed: 9, PermanentStarts: []int{permLo}}
		var emitted atomic.Int64
		prefix, err := RunCore(context.Background(), n, CoreOptions{
			Workers:   workers,
			ChunkSize: cs,
			Retry:     &RetryPolicy{MaxAttempts: 5, IsTransient: chaos.Transient},
		}, Hooks[struct{}]{},
			chaos.Wrap(inj, func(_ struct{}, lo, hi int) error { return nil }),
			func(lo, hi int) error { emitted.Store(int64(hi)); return nil })
		var cerr *ChunkError
		if !errors.As(err, &cerr) || !errors.Is(err, chaos.ErrPermanent) {
			t.Fatalf("workers=%d: err = %v, want ChunkError wrapping ErrPermanent", workers, err)
		}
		if cerr.Chunk != permLo/cs || cerr.Attempt != 1 {
			t.Errorf("workers=%d: ChunkError = %+v, want chunk %d after 1 attempt", workers, cerr, permLo/cs)
		}
		if prefix > permLo || int(emitted.Load()) != prefix {
			t.Errorf("workers=%d: prefix=%d emitted=%d, want prefix <= %d and equal", workers, prefix, emitted.Load(), permLo)
		}
		if workers == 1 && prefix != permLo {
			t.Errorf("sequential prefix = %d, want exactly %d", prefix, permLo)
		}
	}
}

// TestRunCoreTransientExhaustion pins that a chunk whose faults outlast
// MaxAttempts fails with the final attempt recorded.
func TestRunCoreTransientExhaustion(t *testing.T) {
	inj := &chaos.Injector{Seed: 2, TransientRate: 1, MaxFaults: 10}
	_, err := RunCore(context.Background(), 32, CoreOptions{Workers: 2, ChunkSize: 8,
		Retry: &RetryPolicy{MaxAttempts: 3, IsTransient: chaos.Transient}},
		Hooks[struct{}]{},
		chaos.Wrap(inj, func(_ struct{}, lo, hi int) error { return nil }), nil)
	var cerr *ChunkError
	if !errors.As(err, &cerr) || !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("err = %v, want ChunkError wrapping ErrInjected", err)
	}
	if cerr.Attempt != 3 {
		t.Errorf("gave up at attempt %d, want 3 (MaxAttempts)", cerr.Attempt)
	}
}

// TestRunCoreRetryRecreatesWorkerState pins the teardown contract: every
// retry closes the failed attempt's worker state and creates a fresh one, so
// NewWorker/CloseWorker stay paired with exactly one extra pair per injected
// fault.
func TestRunCoreRetryRecreatesWorkerState(t *testing.T) {
	const n, cs = 80, 8
	for _, workers := range resilienceWorkers {
		var mu sync.Mutex
		news, closes := 0, 0
		hooks := Hooks[*int]{
			NewWorker:   func() *int { mu.Lock(); news++; mu.Unlock(); return new(int) },
			CloseWorker: func(*int) { mu.Lock(); closes++; mu.Unlock() },
		}
		// TransientRate 1 faults the first attempt of every chunk exactly
		// once (MaxFaults defaults to 1).
		inj := &chaos.Injector{Seed: 4, TransientRate: 1}
		nChunks := n / cs
		prefix, err := RunCore(context.Background(), n, CoreOptions{Workers: workers, ChunkSize: cs,
			Retry: &RetryPolicy{MaxAttempts: 2, IsTransient: chaos.Transient}},
			hooks,
			chaos.Wrap(inj, func(_ *int, lo, hi int) error { return nil }), nil)
		if err != nil || prefix != n {
			t.Fatalf("workers=%d: prefix=%d err=%v", workers, prefix, err)
		}
		if news != closes {
			t.Errorf("workers=%d: %d NewWorker vs %d CloseWorker — retries must keep them paired", workers, news, closes)
		}
		// One state per worker goroutine plus one recreation per faulted
		// chunk (every chunk faulted once).
		wantExtra := nChunks
		if news < wantExtra+1 || news > wantExtra+workers {
			t.Errorf("workers=%d: %d worker states created, want %d faults + <=%d workers", workers, news, wantExtra, workers)
		}
	}
}

// TestRunCoreCheckpointResume pins the checkpoint/resume round trip at the
// core: watermarks advance monotonically to n, and a second run started from
// any saved watermark evaluates and emits exactly the missing suffix,
// reproducing the remaining results bit-for-bit.
func TestRunCoreCheckpointResume(t *testing.T) {
	const n, cs = 137, 8
	full := make([]int, n)
	ck := &recordingCheckpointer{}
	prefix, err := RunCore(context.Background(), n, CoreOptions{Workers: 3, ChunkSize: cs, Checkpoint: ck},
		Hooks[struct{}]{},
		func(_ struct{}, lo, hi int) error {
			for i := lo; i < hi; i++ {
				full[i] = 7 * i
			}
			return nil
		},
		func(lo, hi int) error { return nil })
	if err != nil || prefix != n {
		t.Fatalf("prefix=%d err=%v", prefix, err)
	}
	saves := ck.snapshot()
	if len(saves) == 0 || saves[len(saves)-1] != n {
		t.Fatalf("saves = %v, want a final watermark of %d", saves, n)
	}
	for i := 1; i < len(saves); i++ {
		if saves[i] <= saves[i-1] {
			t.Fatalf("watermarks not strictly increasing: %v", saves)
		}
	}
	for _, resumeAt := range []int{saves[0], saves[len(saves)/2], n} {
		for _, workers := range resilienceWorkers {
			out := make([]int, n)
			var lowest atomic.Int64
			lowest.Store(int64(n + 1))
			var emitLow atomic.Int64
			emitLow.Store(int64(n + 1))
			prefix, err := RunCore(context.Background(), n,
				CoreOptions{Workers: workers, ChunkSize: cs, Start: resumeAt},
				Hooks[struct{}]{},
				func(_ struct{}, lo, hi int) error {
					if int64(lo) < lowest.Load() {
						lowest.Store(int64(lo))
					}
					for i := lo; i < hi; i++ {
						out[i] = 7 * i
					}
					return nil
				},
				func(lo, hi int) error {
					if int64(lo) < emitLow.Load() {
						emitLow.Store(int64(lo))
					}
					return nil
				})
			if err != nil || prefix != n {
				t.Fatalf("resume@%d workers=%d: prefix=%d err=%v", resumeAt, workers, prefix, err)
			}
			if resumeAt < n {
				if got := int(lowest.Load()); got != resumeAt {
					t.Errorf("resume@%d workers=%d: first evaluated point %d, want %d", resumeAt, workers, got, resumeAt)
				}
				if got := int(emitLow.Load()); got != resumeAt {
					t.Errorf("resume@%d workers=%d: first emitted chunk at %d, want %d", resumeAt, workers, got, resumeAt)
				}
				if !reflect.DeepEqual(out[resumeAt:], full[resumeAt:]) {
					t.Errorf("resume@%d workers=%d: resumed suffix differs", resumeAt, workers)
				}
			} else if lowest.Load() != int64(n+1) {
				t.Errorf("resume@%d: nothing should run, but point %d was evaluated", resumeAt, lowest.Load())
			}
		}
	}
}

// TestRunCoreCheckpointSaveError pins that a failing Checkpointer halts the
// run like an emit error, surfacing the save error.
func TestRunCoreCheckpointSaveError(t *testing.T) {
	sentinel := errors.New("disk full")
	for _, workers := range []int{1, 4} {
		ck := &failingCheckpointer{failAt: 32, err: sentinel}
		_, err := RunCore(context.Background(), 128, CoreOptions{Workers: workers, ChunkSize: 8, Checkpoint: ck},
			Hooks[struct{}]{},
			func(_ struct{}, lo, hi int) error { return nil }, nil)
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want the checkpointer's error", workers, err)
		}
	}
}

// TestRunCoreEmitErrorParity is the emit-error semantics pin: when emit
// fails partway, (prefix, err) agree between the sequential path and the
// pooled path at every worker count — same prefix, same verbatim error.
func TestRunCoreEmitErrorParity(t *testing.T) {
	const n, cs = 10*8 + 5, 8
	sentinel := errors.New("sink full")
	stopAt := 4 * cs
	type outcome struct {
		prefix int
		err    error
	}
	var ref *outcome
	for _, workers := range resilienceWorkers {
		prefix, err := RunCore(context.Background(), n, CoreOptions{Workers: workers, ChunkSize: cs},
			Hooks[struct{}]{},
			func(_ struct{}, lo, hi int) error { return nil },
			func(lo, hi int) error {
				if lo == stopAt {
					return sentinel
				}
				return nil
			})
		got := outcome{prefix, err}
		if ref == nil {
			ref = &got
			if prefix != stopAt {
				t.Fatalf("workers=%d: prefix=%d, want %d", workers, prefix, stopAt)
			}
			if err != sentinel {
				t.Fatalf("workers=%d: err=%v, want the sentinel verbatim", workers, err)
			}
			continue
		}
		if got.prefix != ref.prefix || got.err != ref.err {
			t.Fatalf("workers=%d: (prefix, err) = (%d, %v), sequential gave (%d, %v)",
				workers, got.prefix, got.err, ref.prefix, ref.err)
		}
	}
}

// TestRunCoreEmitErrorParityWithRetry repeats the parity pin with the retry
// layer enabled and transient faults injected before the emit failure: the
// resilience layer must not perturb the emit-error contract.
func TestRunCoreEmitErrorParityWithRetry(t *testing.T) {
	const n, cs = 12 * 8, 8
	sentinel := errors.New("sink full")
	stopAt := 6 * cs
	for _, workers := range resilienceWorkers {
		inj := &chaos.Injector{Seed: 11, TransientRate: 0.3}
		prefix, err := RunCore(context.Background(), n, CoreOptions{Workers: workers, ChunkSize: cs,
			Retry: &RetryPolicy{MaxAttempts: 3, IsTransient: chaos.Transient}},
			Hooks[struct{}]{},
			chaos.Wrap(inj, func(_ struct{}, lo, hi int) error { return nil }),
			func(lo, hi int) error {
				if lo == stopAt {
					return sentinel
				}
				return nil
			})
		if prefix != stopAt || err != sentinel {
			t.Fatalf("workers=%d: (prefix, err) = (%d, %v), want (%d, sentinel)", workers, prefix, err, stopAt)
		}
	}
}

// TestRetryPolicyDelay pins the backoff shape: pure function of (chunk,
// attempt), exponential growth, MaxDelay cap, jitter within [d, 1.5d).
func TestRetryPolicyDelay(t *testing.T) {
	p := &RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond}
	for c := 0; c < 5; c++ {
		for a := 1; a <= 4; a++ {
			d1, d2 := p.delay(c, a), p.delay(c, a)
			if d1 != d2 {
				t.Fatalf("delay(%d,%d) not deterministic: %v vs %v", c, a, d1, d2)
			}
			base := 10 * time.Millisecond << (a - 1)
			if base > p.MaxDelay {
				base = p.MaxDelay
			}
			if d1 < base || d1 >= base+base/2 {
				t.Errorf("delay(%d,%d) = %v, want in [%v, %v)", c, a, d1, base, base+base/2)
			}
		}
	}
	if d := p.delay(3, 1); d == p.delay(4, 1) {
		t.Log("adjacent chunks drew equal jitter (possible but unlikely); not a failure")
	}
	zero := &RetryPolicy{}
	if zero.delay(0, 1) != 0 {
		t.Error("zero BaseDelay must mean no waiting")
	}
}

// TestRetryPolicyNeverRetriesContextErrors pins that cancellation is not a
// retryable fault even under a retry-everything classifier.
func TestRetryPolicyNeverRetriesContextErrors(t *testing.T) {
	p := &RetryPolicy{MaxAttempts: 5}
	if p.retryable(context.Canceled) || p.retryable(fmt.Errorf("spec 3: %w", context.DeadlineExceeded)) {
		t.Error("context errors must never be retried")
	}
	if !p.retryable(errors.New("io timeout")) {
		t.Error("nil IsTransient must retry ordinary errors")
	}
}

// recordingCheckpointer collects watermarks.
type recordingCheckpointer struct {
	mu    sync.Mutex
	saves []int
}

func (c *recordingCheckpointer) Save(w int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.saves = append(c.saves, w)
	return nil
}

func (c *recordingCheckpointer) snapshot() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.saves...)
}

// failingCheckpointer fails once the watermark reaches failAt.
type failingCheckpointer struct {
	failAt int
	err    error
}

func (c *failingCheckpointer) Save(w int) error {
	if w >= c.failAt {
		return c.err
	}
	return nil
}
