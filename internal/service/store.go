package service

// store.go — the durable job store. One directory per job under the store
// root:
//
//	j000001/
//	  spec.json        the submission, verbatim
//	  state.json       {"state": ..., "error": ...}, tmp+rename on every change
//	  results.csv      the streaming CSV output
//	  checkpoint.json  {"watermark", "offset"} resume state (ResultLog)
//
// Job creation is crash-atomic: the directory is populated under a dotted
// temp name and renamed into place, so a crash mid-create leaves only an
// ignorable .tmp-* directory, never a half-readable job. State changes are
// tmp+rename too, so state.json always parses. Recovery is a plain rescan:
// every job directory whose durable state is non-terminal goes back in the
// queue, and its ResultLog resumes from checkpoint.json.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// State is a job's lifecycle state. Queued and running are the non-terminal
// states a restart re-queues; the other four are terminal.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
	StateTimeout  State = "timeout"
)

// Terminal reports whether the state is final — results are complete (done)
// or the job will never progress further (failed/canceled/timeout).
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCanceled, StateTimeout:
		return true
	}
	return false
}

// stateRecord is the durable form of a job's state.
type stateRecord struct {
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
}

// JobRecord is one recovered job: its id, parsed spec, and durable state.
type JobRecord struct {
	ID    string
	Spec  JobSpec
	State State
	Error string
}

// Store persists jobs under a root directory. It is safe for concurrent use
// by the service: each job's files are touched by one goroutine at a time,
// and id allocation — the only cross-job state — is internally locked.
type Store struct {
	root string

	mu   sync.Mutex
	next int // next job number to allocate
}

// OpenStore opens (creating if needed) a job store rooted at dir and scans
// it so freshly allocated ids never collide with existing jobs.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{root: dir, next: 1}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "j%06d", &n); err == nil && n >= s.next {
			s.next = n + 1
		}
	}
	return s, nil
}

func (s *Store) dir(id string) string       { return filepath.Join(s.root, id) }
func (s *Store) specPath(id string) string  { return filepath.Join(s.dir(id), "spec.json") }
func (s *Store) statePath(id string) string { return filepath.Join(s.dir(id), "state.json") }

// ResultsPath returns the job's streaming CSV file.
func (s *Store) ResultsPath(id string) string { return filepath.Join(s.dir(id), "results.csv") }

// CheckpointPath returns the job's {watermark, offset} resume file.
func (s *Store) CheckpointPath(id string) string {
	return filepath.Join(s.dir(id), "checkpoint.json")
}

// Create durably records a new queued job and returns its id. The directory
// appears atomically: populated under a temp name, then renamed.
//
//bicoop:atomicio — populates a temp directory, then renames it into place
func (s *Store) Create(spec JobSpec) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := fmt.Sprintf("j%06d", s.next)
	specData, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	stateData, err := json.Marshal(stateRecord{State: StateQueued})
	if err != nil {
		return "", err
	}
	tmp := filepath.Join(s.root, ".tmp-"+id)
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	cleanup := func() { os.RemoveAll(tmp) }
	if err := os.WriteFile(filepath.Join(tmp, "spec.json"), specData, 0o644); err != nil {
		cleanup()
		return "", err
	}
	if err := os.WriteFile(filepath.Join(tmp, "state.json"), stateData, 0o644); err != nil {
		cleanup()
		return "", err
	}
	if err := os.Rename(tmp, s.dir(id)); err != nil {
		cleanup()
		return "", err
	}
	s.next++
	return id, nil
}

// SetState durably records a job's state transition (tmp+rename, so a crash
// mid-write keeps the previous state readable).
//
//bicoop:atomicio — tmp+rename of state.json
func (s *Store) SetState(id string, state State, errMsg string) error {
	data, err := json.Marshal(stateRecord{State: state, Error: errMsg})
	if err != nil {
		return err
	}
	tmp := s.statePath(id) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, s.statePath(id))
}

// Load reads one job's durable record.
func (s *Store) Load(id string) (JobRecord, error) {
	rec := JobRecord{ID: id}
	specData, err := os.ReadFile(s.specPath(id))
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(specData, &rec.Spec); err != nil {
		return rec, fmt.Errorf("job %s: corrupt spec.json: %w", id, err)
	}
	stateData, err := os.ReadFile(s.statePath(id))
	if err != nil {
		return rec, err
	}
	var sr stateRecord
	if err := json.Unmarshal(stateData, &sr); err != nil {
		return rec, fmt.Errorf("job %s: corrupt state.json: %w", id, err)
	}
	rec.State, rec.Error = sr.State, sr.Error
	return rec, nil
}

// LoadAll rescans the store, returning every job in id order. Temp
// directories from interrupted creates are removed, not surfaced — the
// submission never got its 201, so the job never existed.
func (s *Store) LoadAll() ([]JobRecord, error) {
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if strings.HasPrefix(e.Name(), ".") {
			os.RemoveAll(filepath.Join(s.root, e.Name()))
			continue
		}
		var n int
		if _, err := fmt.Sscanf(e.Name(), "j%06d", &n); err == nil {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	recs := make([]JobRecord, 0, len(ids))
	for _, id := range ids {
		rec, err := s.Load(id)
		if errors.Is(err, fs.ErrNotExist) {
			continue // raced with an external delete; skip
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}
