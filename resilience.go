package bicoop

// resilience.go — the public face of the resilience layer in internal/sweep.
// Long sweeps and campaigns are the workloads the library exists for, and
// they get interrupted: a Ctrl-C, a deadline, a killed process, a workload
// panic. The facade exposes two resilience primitives on every streaming
// spec (SweepSpec, RegionBatchSpec, CampaignSpec); a failed chunk is not
// retried, because every result is a deterministic function of its spec and
// a retry could only repeat the failure:
//
//   - Checkpointer observes the resume watermark (the contiguous prefix of
//     delivered results) as it advances, one save per Workers completed
//     chunks, and the spec's Start field resumes
//     a later run past it — the concatenation of the two runs' yields is
//     byte-identical to an uninterrupted run;
//   - workload panics are contained per chunk and surfaced as a *ChunkError
//     wrapping a *PanicError instead of crashing the process.
//
// See the "Resilience" section of the package documentation for the full
// recipe.

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"
	"strings"

	"bicoop/internal/sweep"
)

// Checkpointer persists the resume watermark of a streaming run: the length
// of the contiguous prefix of results already delivered to the caller. Save
// is invoked from the yielding goroutine after the corresponding yields
// returned, so a saved watermark never overstates what the caller received.
// A run saves once per Workers delivered chunks (after every chunk with one
// worker), at chunk boundaries fixed by the spec and Workers, never by
// timing. The final watermark (or an interrupted run's delivered prefix)
// is always saved, saved values strictly increase, and a crash loses at
// most Workers chunks of delivered results past the last save. A Save
// error halts the run.
//
// Watermark units follow the spec's yields: grid points for Engine.Sweep,
// whole curves for Engine.RegionBatch, completed runs for
// Engine.SimulateBatch. Feed the last saved value back as the spec's Start
// field to resume.
type Checkpointer interface {
	Save(watermark int) error
}

// FileCheckpoint is a Checkpointer that stores the watermark in a file,
// atomically (write-temp-then-rename), so a crash mid-save leaves the
// previous watermark intact. The zero value is unusable; set Path.
type FileCheckpoint struct {
	// Path is the checkpoint file. Saves write Path+".tmp" and rename.
	Path string
}

// Save atomically replaces the checkpoint file with the new watermark.
func (c *FileCheckpoint) Save(watermark int) error {
	tmp := c.Path + ".tmp"
	if err := os.WriteFile(tmp, []byte(strconv.Itoa(watermark)+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, c.Path)
}

// Load reads the last saved watermark; a missing file is watermark 0 (a
// fresh run), so Load feeds straight into a spec's Start field. A
// zero-length file — what a crash between creating the file and the first
// write leaves behind — is likewise watermark 0, not corruption: no save
// ever completed, so a fresh run is exactly right.
func (c *FileCheckpoint) Load() (int, error) {
	data, err := os.ReadFile(c.Path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	body := strings.TrimSpace(string(data))
	if body == "" {
		return 0, nil
	}
	w, err := strconv.Atoi(body)
	if err != nil || w < 0 {
		return 0, fmt.Errorf("bicoop: corrupt checkpoint %s: %q", c.Path, data)
	}
	return w, nil
}

// ChunkError reports the failure of one chunk of a sharded run. Err is the
// chunk's failure — errors.Is/As see through to it, so sentinel checks on
// the underlying cause keep working.
type ChunkError struct {
	// Chunk is the chunk index; Start and End are its point range
	// [Start, End) in the run's enumeration order.
	Chunk, Start, End int
	// Err is the underlying failure (a *PanicError for contained panics).
	Err error
}

func (e *ChunkError) Error() string {
	return fmt.Sprintf("chunk %d [%d,%d): %v", e.Chunk, e.Start, e.End, e.Err)
}

func (e *ChunkError) Unwrap() error { return e.Err }

// PanicError is a workload panic contained by the sharded core: the process
// survives and the panic surfaces as an error inside a *ChunkError.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// translateResilience rewrites the internal chunk/panic error types into
// their public equivalents so callers can errors.As against bicoop types.
// The underlying cause chain is preserved.
func translateResilience(err error) error {
	var cerr *sweep.ChunkError
	if !errors.As(err, &cerr) {
		return err
	}
	inner := cerr.Err
	var perr *sweep.PanicError
	if errors.As(inner, &perr) {
		inner = &PanicError{Value: perr.Value, Stack: perr.Stack}
	}
	return &ChunkError{Chunk: cerr.Chunk, Start: cerr.Start, End: cerr.End, Err: inner}
}

// validateResume rejects a negative Start with the given spec sentinel —
// shared by the three resumable spec types.
func validateResume(start int, sentinel error) error {
	if start < 0 {
		return fmt.Errorf("%w: negative Start %d", sentinel, start)
	}
	return nil
}
