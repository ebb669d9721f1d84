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

// resilienceWorkers are the worker counts every resilience pin runs at: a
// single worker, a small pool, and a pool wider than the chunk window.
var resilienceWorkers = []int{1, 2, 7}

// TestRunCoreChaosBitIdentical is the headline resilience pin: a run with
// ~20% of its chunks delayed — so chunks finish out of order and land on
// different workers from run to run — completes with results == to a
// fault-free run at every worker count.
func TestRunCoreChaosBitIdentical(t *testing.T) {
	const n, cs = 40*8 + 5, 8
	run := func(workers int, inj *chaos.Injector) []int {
		out := make([]int, n)
		// W is a per-worker counter the workload restarts at every chunk:
		// each point records its position within the chunk, so results
		// expose the chunk boundaries.
		hooks := Hooks[*int]{NewWorker: func() *int { return new(int) }}
		do := func(w *int, lo, hi int) error {
			*w = 0
			for i := lo; i < hi; i++ {
				*w++
				out[i] = i*1000 + *w
			}
			return nil
		}
		if inj != nil {
			do = chaos.Wrap(inj, do)
		}
		prefix, err := RunCore(context.Background(), n, cs, Options{Workers: workers}, hooks, do, nil)
		if err != nil || prefix != n {
			t.Fatalf("workers=%d: prefix=%d err=%v", workers, prefix, err)
		}
		return out
	}

	clean := run(1, nil)
	for _, workers := range resilienceWorkers {
		got := run(workers, &chaos.Injector{Seed: 7, DelayRate: 0.2, Delay: 200 * time.Microsecond})
		if !reflect.DeepEqual(got, clean) {
			t.Fatalf("workers=%d: chaos run differs from fault-free run", workers)
		}
	}
}

// TestRunChaosWarmEvaluators runs the real pooled-evaluator workload (HBC
// LPs, evaluators leased and reused across chunks) under injected delays
// and pins bit-identical results: delays reshuffle which evaluator solves
// which chunk, and a reused evaluator's results never depend on the solves
// before them.
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
		if inj != nil {
			do = chaos.Wrap(inj, do)
		}
		prefix, err := RunCore(context.Background(), len(scen), ChunkSize, Options{Workers: workers}, evaluatorHooks, do, nil)
		if err != nil || prefix != len(scen) {
			t.Fatalf("workers=%d: prefix=%d err=%v", workers, prefix, err)
		}
		return out
	}
	clean := run(1, nil)
	for _, workers := range resilienceWorkers {
		got := run(workers, &chaos.Injector{Seed: 3, DelayRate: 0.2, Delay: 200 * time.Microsecond})
		for i := range clean {
			if got[i] != clean[i] {
				t.Fatalf("workers=%d: point %d differs under chaos: %+v vs %+v", workers, i, got[i], clean[i])
			}
		}
	}
}

// TestRunCorePanicContained pins panic containment: an injected worker panic
// surfaces as a *ChunkError wrapping a *PanicError — the process stays alive
// — and the run halts with the panicking chunk identified.
func TestRunCorePanicContained(t *testing.T) {
	const n, cs = 96, 8
	const panicLo = 5 * cs
	for _, workers := range resilienceWorkers {
		inj := &chaos.Injector{Seed: 1, PanicStarts: []int{panicLo}}
		_, err := RunCore(context.Background(), n, cs, Options{Workers: workers}, Hooks[struct{}]{},
			chaos.Wrap(inj, func(_ struct{}, lo, hi int) error { return nil }), nil)
		var cerr *ChunkError
		if !errors.As(err, &cerr) {
			t.Fatalf("workers=%d: err = %v, want a *ChunkError", workers, err)
		}
		if cerr.Chunk != panicLo/cs || cerr.Start != panicLo {
			t.Errorf("workers=%d: ChunkError = %+v, want chunk %d at [%d,...)", workers, cerr, panicLo/cs, panicLo)
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

// TestRunCorePermanentFaultPrefix pins the halt semantics of a chunk
// failure: the error identifies the failed chunk, the emitted prefix never
// passes it, and a single worker stops exactly at it.
func TestRunCorePermanentFaultPrefix(t *testing.T) {
	const n, cs = 120, 8
	const permLo = 7 * cs
	for _, workers := range resilienceWorkers {
		inj := &chaos.Injector{Seed: 9, PermanentStarts: []int{permLo}}
		var emitted atomic.Int64
		prefix, err := RunCore(context.Background(), n, cs, Options{Workers: workers}, Hooks[struct{}]{},
			chaos.Wrap(inj, func(_ struct{}, lo, hi int) error { return nil }),
			func(lo, hi int) error { emitted.Store(int64(hi)); return nil })
		var cerr *ChunkError
		if !errors.As(err, &cerr) || !errors.Is(err, chaos.ErrPermanent) {
			t.Fatalf("workers=%d: err = %v, want ChunkError wrapping ErrPermanent", workers, err)
		}
		if cerr.Chunk != permLo/cs || cerr.Start != permLo {
			t.Errorf("workers=%d: ChunkError = %+v, want chunk %d", workers, cerr, permLo/cs)
		}
		if prefix > permLo || int(emitted.Load()) != prefix {
			t.Errorf("workers=%d: prefix=%d emitted=%d, want prefix <= %d and equal", workers, prefix, emitted.Load(), permLo)
		}
		if workers == 1 && prefix != permLo {
			t.Errorf("single-worker prefix = %d, want exactly %d", prefix, permLo)
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
	prefix, err := RunCore(context.Background(), n, cs, Options{Workers: 3, Checkpoint: ck},
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
	requireIncreasing(t, saves)
	for _, resumeAt := range []int{saves[0], saves[len(saves)/2], n} {
		for _, workers := range resilienceWorkers {
			out := make([]int, n)
			var lowest atomic.Int64
			lowest.Store(int64(n + 1))
			var emitLow atomic.Int64
			emitLow.Store(int64(n + 1))
			prefix, err := RunCore(context.Background(), n, cs,
				Options{Workers: workers, Start: resumeAt},
				Hooks[struct{}]{},
				func(_ struct{}, lo, hi int) error {
					storeMin(&lowest, int64(lo))
					for i := lo; i < hi; i++ {
						out[i] = 7 * i
					}
					return nil
				},
				func(lo, hi int) error {
					storeMin(&emitLow, int64(lo))
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
		_, err := RunCore(context.Background(), 128, 8, Options{Workers: workers, Checkpoint: ck},
			Hooks[struct{}]{},
			func(_ struct{}, lo, hi int) error { return nil }, nil)
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want the checkpointer's error", workers, err)
		}
	}
}

// TestRunCoreEmitErrorParity is the emit-error semantics pin: when emit
// fails partway, (prefix, err) agree at every worker count — same prefix,
// same verbatim error.
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
		prefix, err := RunCore(context.Background(), n, cs, Options{Workers: workers},
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
			t.Fatalf("workers=%d: (prefix, err) = (%d, %v), one worker gave (%d, %v)",
				workers, got.prefix, got.err, ref.prefix, ref.err)
		}
	}
}

// storeMin lowers m to v unless m already holds a smaller value. Workers
// record their chunk starts concurrently, so a plain load-then-store could
// let a later chunk overwrite an earlier one.
func storeMin(m *atomic.Int64, v int64) {
	for cur := m.Load(); v < cur && !m.CompareAndSwap(cur, v); cur = m.Load() {
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

// requireIncreasing fails unless the saved watermarks strictly increase.
func requireIncreasing(t *testing.T, saves []int) {
	t.Helper()
	for i := 1; i < len(saves); i++ {
		if saves[i] <= saves[i-1] {
			t.Fatalf("watermarks not strictly increasing: %v", saves)
		}
	}
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

// blockingCheckpointer holds its first Save until release is closed, so the
// pool completes the chunks behind it while the emitter waits; it records
// every watermark.
type blockingCheckpointer struct {
	recordingCheckpointer
	release <-chan struct{}
	once    sync.Once
}

func (c *blockingCheckpointer) Save(w int) error {
	c.once.Do(func() { <-c.release })
	return c.recordingCheckpointer.Save(w)
}

var errChunkSink = errors.New("sink closed")

// TestRunCoreSaveCadence pins the emitter's save cadence: one Save right
// after every Workers-th one-point chunk is emitted (after every chunk with
// one worker), then the final watermark — the same watermarks whatever
// order and pace the chunks complete in:
//
//   - serial: each do waits until the previous chunk was emitted, so the
//     emitter never finds another completion queued;
//   - burst: the first Save is held until every chunk the tickets allow
//     has completed, so they all queue up behind it;
//   - free: no pacing at all.
//
// A save-per-completion emitter, and one that saves whenever the queue is
// empty, save once per chunk on the serial pace. The emit callback also
// checks the crash bound: at most Workers chunks are ever emitted past the
// last save.
func TestRunCoreSaveCadence(t *testing.T) {
	const n = 41
	for _, workers := range []int{1, 2, 7} {
		var want []int // the multiples of workers up to n, then n
		for w := workers; w <= n; w += workers {
			want = append(want, w)
		}
		if want[len(want)-1] != n {
			want = append(want, n)
		}
		for _, pace := range []string{"serial", "burst", "free"} {
			t.Run(fmt.Sprintf("workers%d/%s", workers, pace), func(t *testing.T) {
				emitted := make([]chan struct{}, n)
				for i := range emitted {
					emitted[i] = make(chan struct{})
				}
				release := make(chan struct{})
				var releaseOnce sync.Once
				open := func() { releaseOnce.Do(func() { close(release) }) }
				if pace != "burst" {
					open()
				}
				// An emitter that saves before the workers-th chunk never
				// lets 3×workers chunks complete; the timer turns that
				// deadlock into a failed assertion.
				defer time.AfterFunc(2*time.Second, open).Stop()
				ck := &blockingCheckpointer{release: release}
				var finished atomic.Int32
				prefix, err := RunCore(context.Background(), n, 1, Options{Workers: workers, Checkpoint: ck},
					Hooks[struct{}]{},
					func(_ struct{}, lo, hi int) error {
						if pace == "serial" && lo > 0 {
							<-emitted[lo-1]
						}
						// While the first Save (at workers) is held, the
						// window's 2×workers tickets plus the workers
						// returned before it let 3×workers chunks complete.
						if pace == "burst" && finished.Add(1) == int32(3*workers) {
							open()
						}
						return nil
					},
					func(lo, hi int) error {
						last := 0
						if saves := ck.snapshot(); len(saves) > 0 {
							last = saves[len(saves)-1]
						}
						if hi-last > workers {
							t.Errorf("emitted %d points past the last save %d, want at most %d", hi-last, last, workers)
						}
						close(emitted[lo])
						return nil
					})
				if err != nil || prefix != n {
					t.Fatalf("prefix=%d err=%v", prefix, err)
				}
				if saves := ck.snapshot(); !reflect.DeepEqual(saves, want) {
					t.Fatalf("saves = %v, want %v", saves, want)
				}
			})
		}
	}

	// An emit error between two saves still saves the emitted prefix last,
	// and no save passes it.
	t.Run("emit_error", func(t *testing.T) {
		const workers, stopAt = 2, 5
		emitted := make([]chan struct{}, n)
		for i := range emitted {
			emitted[i] = make(chan struct{})
		}
		stopped := make(chan struct{}) // the emitter halted: stop pacing
		ck := &recordingCheckpointer{}
		prefix, err := RunCore(context.Background(), n, 1, Options{Workers: workers, Checkpoint: ck},
			Hooks[struct{}]{},
			func(_ struct{}, lo, hi int) error {
				if lo > 0 {
					select {
					case <-emitted[lo-1]:
					case <-stopped:
					}
				}
				return nil
			},
			func(lo, hi int) error {
				if lo == stopAt {
					close(stopped)
					return errChunkSink
				}
				close(emitted[lo])
				return nil
			})
		if !errors.Is(err, errChunkSink) || prefix != stopAt {
			t.Fatalf("prefix=%d err=%v, want %d and the emit error", prefix, err, stopAt)
		}
		if saves, want := ck.snapshot(), []int{2, 4, stopAt}; !reflect.DeepEqual(saves, want) {
			t.Fatalf("saves = %v, want %v", saves, want)
		}
	})
}
