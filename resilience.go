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
// Checkpointer, ChunkError and PanicError are aliases of the internal/sweep
// types, so the errors a run returns need no translation: errors.As
// reaches them through the facade's "bicoop: %w" wrapping.
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
//
// Any type with a method Save(watermark int) error is a Checkpointer.
type Checkpointer = sweep.Checkpointer

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

// ChunkError reports the failure of one chunk of a sharded run: its index
// Chunk, its point range [Start, End) in the run's enumeration order, and
// the underlying failure Err (a *PanicError for contained panics). It
// unwraps to Err, so errors.Is/As see through to the underlying cause.
type ChunkError = sweep.ChunkError

// PanicError is a workload panic contained by the sharded core: the process
// survives and the panic surfaces as an error inside a *ChunkError, with
// the recovered Value and the goroutine Stack captured at recovery.
type PanicError = sweep.PanicError

// validateResume rejects a negative Start with the given spec sentinel —
// shared by the three resumable spec types.
func validateResume(start int, sentinel error) error {
	if start < 0 {
		return fmt.Errorf("%w: negative Start %d", sentinel, start)
	}
	return nil
}
