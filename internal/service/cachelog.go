package service

// cachelog.go — the durable shared tier of the scenario-keyed result
// cache (internal/cache). The log sits next to the job store and holds
// one fixed-size CRC-checked record per cached solve, append-only.
// Startup replays it into the in-process store, so repeat jobs hit cache
// across daemon restarts; every fill is appended through a write-behind
// buffer. Fills are cache warmth, not correctness: a crash loses at most
// the buffered tail, which the next run simply re-solves — the byte-exact
// durability contract of the job store is not needed here, only the
// guarantee that a torn or corrupt tail can never poison replay, which
// the record CRCs plus truncate-on-replay compaction provide.

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"

	"bicoop/internal/cache"
)

// CacheLog is the append-only durable tier behind one cache store. It is
// compacted only when opened (see OpenCacheLog); while open it only grows.
type CacheLog struct {
	path  string
	store *cache.Store

	mu      sync.Mutex
	f       *os.File
	buf     *bufio.Writer
	scratch []byte
}

// OpenCacheLog replays the cache log at path into store, compacts it when
// its tail is torn or stale records have bloated it, registers the log as
// the store's fill sink, and returns the open log ready for appends.
// A missing file is an empty cache, not an error.
//
// Compaction rewrites via tmp+rename; the live file only ever grows by
// whole appended records, and replay stops at the first record whose CRC
// fails, so a crash at any point leaves a replayable log.
//
//bicoop:atomicio — append-only log; compaction goes through tmp+rename
func OpenCacheLog(path string, store *cache.Store) (*CacheLog, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("reading cache log: %w", err)
	}
	records := 0
	_, clean := cache.Replay(data, func(k cache.Key, v cache.Value) {
		records++
		store.Add(k, v)
	})
	// Compact when the tail is torn (crash mid-append) or when evicted and
	// superseded records have bloated the log past twice the live entry
	// count: snapshot the surviving entries via tmp+rename.
	if !clean || records > 2*store.Len() {
		if err := snapshotCacheLog(path, store); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("opening cache log: %w", err)
	}
	l := &CacheLog{path: path, store: store, f: f, buf: bufio.NewWriterSize(f, 1<<16)}
	store.SetSink(l.record)
	return l, nil
}

// snapshotCacheLog rewrites the log as a snapshot of the store's live
// entries.
//
//bicoop:atomicio — tmp+rename so a crash mid-compaction leaves the old log
func snapshotCacheLog(path string, store *cache.Store) error {
	var buf []byte
	store.Range(func(k cache.Key, v cache.Value) bool {
		buf = cache.AppendRecord(buf, k, v)
		return true
	})
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("writing cache snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("installing cache snapshot: %w", err)
	}
	return nil
}

// record appends one fill through the write-behind buffer; it is the
// store's fill sink. A bufio error is sticky and surfaces on Flush/Close.
func (l *CacheLog) record(k cache.Key, v cache.Value) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.scratch = cache.AppendRecord(l.scratch[:0], k, v)
	l.buf.Write(l.scratch)
}

// Flush pushes buffered records to the file. The service flushes after
// every job, bounding what a crash can lose to one job's unflushed tail.
func (l *CacheLog) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.buf.Flush(); err != nil {
		return fmt.Errorf("flushing cache log: %w", err)
	}
	return nil
}

// Close flushes and closes the log file. The store's sink is left in
// place but writes after Close surface errors on the next Flush; close
// the log only after the engine is done filling.
func (l *CacheLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	ferr := l.buf.Flush()
	cerr := l.f.Close()
	if ferr != nil {
		return fmt.Errorf("flushing cache log: %w", ferr)
	}
	if cerr != nil {
		return fmt.Errorf("closing cache log: %w", cerr)
	}
	return nil
}
