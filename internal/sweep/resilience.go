package sweep

// resilience.go — the fault-handling layer of the generic core, and the
// one definition of its types: the facade's Checkpointer, ChunkError and
// PanicError are aliases of the three below. Every chunk a run evaluates
// is a deterministic function of its points, so a failed chunk would fail
// the same way again; the layer therefore contains failures instead of
// repeating them. Two mechanisms, both preserving the
// bit-identical-across-Workers guarantee:
//
//   - panic containment: every do invocation runs under a recover that
//     converts a workload panic into a *PanicError, surfaced (like any do
//     error) inside a *ChunkError instead of crashing the process;
//   - checkpointing: Options.Checkpoint observes the ordered emitter's
//     watermark (the contiguous emitted point prefix) once per Workers
//     emitted chunks, and Options.Start resumes a later run past a saved
//     watermark — the prefix-on-cancel semantics make the watermark
//     exactly the safe resume point.

import (
	"fmt"
	"runtime/debug"
)

// ChunkError reports the failure of one chunk of a sharded run: which chunk,
// its point range, and the underlying error
// (a *PanicError when the workload panicked). It unwraps to Err, so
// errors.Is/As see through it.
type ChunkError struct {
	// Chunk is the chunk index; Start and End delimit its points [Start, End).
	Chunk, Start, End int
	// Err is the underlying do error.
	Err error
}

func (e *ChunkError) Error() string {
	return fmt.Sprintf("chunk %d [%d,%d): %v", e.Chunk, e.Start, e.End, e.Err)
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

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Checkpointer persists the ordered emitter's watermark — the contiguous
// prefix of points emitted without error. Save observes strictly increasing
// watermarks from the single emitter goroutine (implementations need no
// locking against the run itself); feeding the last saved value back as
// Options.Start resumes a later run past the already-emitted prefix. A
// Save error halts the run like an emit error.
type Checkpointer interface {
	Save(watermark int) error
}

// runChunk evaluates chunk c under panic containment: a workload panic
// becomes a *PanicError instead of killing the process. Returns nil on
// success, or the failure wrapped in a *ChunkError.
func runChunk[W any](do func(W, int, int) error, w W, c, lo, hi int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
		if err != nil {
			err = &ChunkError{Chunk: c, Start: lo, End: hi, Err: err}
		}
	}()
	return do(w, lo, hi)
}
