// Package service is the crash-safe bccd job service: a durable on-disk job
// store, a bounded admission queue with load shedding, a drain-aware runner
// that parks in-flight jobs on shutdown, and an HTTP/JSON front end. Every
// job streams its results through a ResultLog — the one byte-offset
// CSV resume implementation shared with the bcc CLI — so a kill -9 at any
// instant loses at most the rows past the last checkpoint, and a restart
// rewrites exactly those rows: the recovered file is byte-identical to an
// uninterrupted run's.
package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
)

// logCheckpoint is the durable resume state of a ResultLog: the engine
// watermark (in the spec's yield units — points, curves or runs) plus the
// CSV byte offset the watermarked prefix ends at. The offset makes resume
// robust to a kill between a yield and its checkpoint save — the rerun
// truncates the CSV back to the offset the watermark vouches for, so rows
// delivered but never checkpointed are rewritten rather than duplicated.
type logCheckpoint struct {
	Watermark int   `json:"watermark"`
	Offset    int64 `json:"offset"`
}

var errCorruptCheckpoint = errors.New("corrupt checkpoint")

// parseLogCheckpoint decodes a checkpoint file's contents. A zero-length
// (or all-whitespace) file — what a crash between creating the file and
// the first completed write leaves behind — is a fresh run, not
// corruption.
func parseLogCheckpoint(data []byte) (logCheckpoint, error) {
	var ck logCheckpoint
	if len(bytes.TrimSpace(data)) == 0 {
		return ck, nil // crash before the first save completed: fresh run
	}
	if err := json.Unmarshal(data, &ck); err != nil || ck.Watermark < 0 || ck.Offset < 0 {
		return logCheckpoint{}, errCorruptCheckpoint
	}
	return ck, nil
}

// loadLogCheckpoint reads a {watermark, offset} checkpoint. A missing file
// is a fresh run; a file that does not decode is a loud error, never a
// silent restart.
func loadLogCheckpoint(path string) (logCheckpoint, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return logCheckpoint{}, nil // fresh run
	}
	if err != nil {
		return logCheckpoint{}, err
	}
	ck, err := parseLogCheckpoint(data)
	if err != nil {
		return ck, fmt.Errorf("%w %s (delete it to start fresh)", err, path)
	}
	return ck, nil
}

// ResultLog owns a job's streaming CSV output and, when opened with a
// checkpoint path, persists {watermark, offset} atomically on every engine
// Save — after flushing the rows the watermark covers, so a saved
// checkpoint never points past what is durably in the file. A run saves
// once per Workers chunks; the final watermark is always saved, and a
// crash loses at most Workers chunks of rows past the last save, which
// the resumed run rewrites byte for byte. It implements
// bicoop.Checkpointer; feed Watermark back as the spec's Start and the
// concatenated output of the runs is byte-identical to an uninterrupted
// run's. A file-backed log buffers csvBufSize bytes, more than a save
// interval's rows, so the rows leave in one write per Save, at its flush.
type ResultLog struct {
	f         *os.File // nil when wrapping a plain writer (stdout)
	buf       *bufio.Writer
	off       int64  // CSV bytes written so far, flushed or buffered
	line      []byte // reusable row buffer (see emit.go)
	ckPath    string // "" disables checkpointing
	watermark int    // watermark loaded at open (the resume Start)

	// scenario holds the formatted "power,gab,gar,gbr," fields of the
	// last sweep row and scenarioKey their float64 bits; empty until the
	// log writes its first sweep row (see sweepRow).
	scenario    []byte
	scenarioKey [4]uint64
}

// csvBufSize is the CSV buffer of a file-backed log. Sweep rows run about
// 120 bytes, so a save interval of Workers 64-point chunks is about 15 KiB
// at two workers, and up to eight workers fit in one write.
const csvBufSize = 64 << 10

// OpenResultLog opens csvPath for a run's CSV stream. With ckPath empty the
// file is created fresh and nothing is checkpointed. With ckPath set, the
// checkpoint decides: missing/empty means a fresh run (csvPath is created,
// truncating any stale leftover), a saved watermark means resume (csvPath
// must exist; it is truncated to the checkpointed offset and appended to),
// and a corrupt checkpoint is a loud error, never a silent restart.
//
// The CSV stream is checkpoint-truncated rather than tmp+renamed: rows past
// the last Save are reproducible partial output by design.
//
//bicoop:atomicio — audited checkpoint-truncate open of the CSV stream
func OpenResultLog(csvPath, ckPath string) (*ResultLog, error) {
	l := &ResultLog{ckPath: ckPath}
	if ckPath != "" {
		ck, err := loadLogCheckpoint(ckPath)
		if err != nil {
			return nil, err
		}
		if ck.Watermark > 0 {
			f, err := os.OpenFile(csvPath, os.O_RDWR, 0o644)
			if err != nil {
				return nil, fmt.Errorf("checkpoint %s expects output %s: %w (delete the checkpoint to start fresh)", ckPath, csvPath, err)
			}
			if err := f.Truncate(ck.Offset); err != nil {
				f.Close()
				return nil, err
			}
			if _, err := f.Seek(ck.Offset, io.SeekStart); err != nil {
				f.Close()
				return nil, err
			}
			l.f, l.off, l.watermark = f, ck.Offset, ck.Watermark
		}
	}
	if l.f == nil {
		f, err := os.Create(csvPath)
		if err != nil {
			return nil, err
		}
		l.f = f
	}
	l.buf = bufio.NewWriterSize(l.f, csvBufSize)
	return l, nil
}

// NewResultLog wraps a plain writer (stdout) with no resume and no
// checkpointing — the streaming-only mode of the bcc CLI.
func NewResultLog(w io.Writer) *ResultLog {
	return &ResultLog{buf: bufio.NewWriter(w)}
}

// Watermark returns the resume watermark loaded at open: 0 for a fresh run,
// the last checkpointed value for a resumed one. Feed it to the spec's
// Start field.
func (l *ResultLog) Watermark() int { return l.watermark }

// Fresh reports whether the run starts from the beginning — the caller
// writes the CSV header exactly when it does.
func (l *ResultLog) Fresh() bool { return l.watermark == 0 }

// Checkpointed reports whether the log persists a checkpoint; set the spec's
// Checkpoint field to l exactly when it does.
func (l *ResultLog) Checkpointed() bool { return l.ckPath != "" }

// write appends bytes to the stream, tracking the CSV offset.
func (l *ResultLog) write(b []byte) error {
	n, err := l.buf.Write(b)
	l.off += int64(n)
	return err
}

// Save implements bicoop.Checkpointer: flush the rows the watermark covers,
// then atomically replace the checkpoint with {watermark, current offset}.
// The offset is the CSV bytes written, tracked in memory.
//
//bicoop:atomicio — tmp+rename of the checkpoint file
func (l *ResultLog) Save(watermark int) error {
	if err := l.buf.Flush(); err != nil {
		return err
	}
	data, err := json.Marshal(logCheckpoint{Watermark: watermark, Offset: l.off})
	if err != nil {
		return err
	}
	tmp := l.ckPath + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, l.ckPath)
}

// Flush pushes buffered rows to the underlying file or writer. Rows past
// the last checkpoint are still valid partial output — a resume truncates
// them away before rewriting.
func (l *ResultLog) Flush() error { return l.buf.Flush() }

// Close flushes and closes the underlying file (a no-op close for a wrapped
// plain writer).
func (l *ResultLog) Close() error {
	err := l.buf.Flush()
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
