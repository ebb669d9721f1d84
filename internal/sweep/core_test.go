package sweep

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRunCoreHookLifecycle pins the generic worker-state contract: exactly
// one NewWorker/CloseWorker pair per worker goroutine, and chunk boundaries
// that depend only on (n, ChunkSize) — the invariant checkpoints rest on.
func TestRunCoreHookLifecycle(t *testing.T) {
	const n, cs = 103, 10
	for _, workers := range []int{1, 3} {
		var mu sync.Mutex
		news, closes := 0, 0
		var chunks [][2]int
		hooks := Hooks[*int]{
			NewWorker: func() *int {
				mu.Lock()
				defer mu.Unlock()
				news++
				return new(int)
			},
			CloseWorker: func(w *int) {
				mu.Lock()
				defer mu.Unlock()
				closes++
			},
		}
		prefix, err := RunCore(context.Background(), n, cs, Options{Workers: workers}, hooks,
			func(w *int, lo, hi int) error {
				mu.Lock()
				chunks = append(chunks, [2]int{lo, hi})
				mu.Unlock()
				return nil
			}, nil)
		if err != nil || prefix != n {
			t.Fatalf("workers=%d: prefix=%d err=%v", workers, prefix, err)
		}
		if news != workers || closes != workers {
			t.Errorf("workers=%d: %d NewWorker vs %d CloseWorker calls", workers, news, closes)
		}
		wantChunks := (n + cs - 1) / cs
		if len(chunks) != wantChunks {
			t.Errorf("workers=%d: %d chunks, want %d", workers, len(chunks), wantChunks)
		}
		seen := make(map[int]int, wantChunks)
		for _, c := range chunks {
			seen[c[0]] = c[1]
		}
		for c := 0; c < wantChunks; c++ {
			lo := c * cs
			hi := lo + cs
			if hi > n {
				hi = n
			}
			if seen[lo] != hi {
				t.Errorf("workers=%d: chunk [%d, %d) missing or misshapen (got hi=%d)", workers, lo, hi, seen[lo])
			}
		}
	}
}

// TestRunCoreChunkSizeOne covers the campaign shape: heavyweight points
// claimed one at a time, zero-state workers, ordered emission.
func TestRunCoreChunkSizeOne(t *testing.T) {
	const n = 9
	var ran atomic.Int64
	var emitted []int
	prefix, err := RunCore(context.Background(), n, 1, Options{Workers: 4}, Hooks[struct{}]{},
		func(_ struct{}, lo, hi int) error {
			if hi != lo+1 {
				return errors.New("chunk wider than 1")
			}
			ran.Add(1)
			return nil
		},
		func(lo, hi int) error {
			emitted = append(emitted, lo)
			return nil
		})
	if err != nil || prefix != n {
		t.Fatalf("prefix=%d err=%v", prefix, err)
	}
	if ran.Load() != n || len(emitted) != n {
		t.Fatalf("ran %d, emitted %d, want %d", ran.Load(), len(emitted), n)
	}
	for i, lo := range emitted {
		if lo != i {
			t.Fatalf("emission order %v, want ascending", emitted)
		}
	}
}

// TestRunCoreWorkerStateIsolation proves two workers never share a W: each
// chunk records the identity of the state that ran it, and the per-state
// chunk sets partition the chunk index space.
func TestRunCoreWorkerStateIsolation(t *testing.T) {
	const n, cs = 64, 4
	type worker struct{ id int }
	var nextID atomic.Int64
	owners := make([]*worker, (n+cs-1)/cs)
	hooks := Hooks[*worker]{
		NewWorker: func() *worker { return &worker{id: int(nextID.Add(1))} },
	}
	prefix, err := RunCore(context.Background(), n, cs, Options{Workers: 4}, hooks,
		func(w *worker, lo, hi int) error {
			owners[lo/cs] = w
			return nil
		}, nil)
	if err != nil || prefix != n {
		t.Fatalf("prefix=%d err=%v", prefix, err)
	}
	for c, w := range owners {
		if w == nil {
			t.Fatalf("chunk %d never ran", c)
		}
	}
}
