package service

// service.go — the job runtime: a bounded FIFO admission queue, a fixed
// pool of executor goroutines, and the lifecycle glue between the durable
// store and the engine. The design center is crash-safety and graceful
// degradation:
//
//   - admission is load-shed, not buffered unbounded: a full queue rejects
//     with ErrQueueFull (HTTP 429) so a burst degrades loudly instead of
//     accumulating latent work;
//   - every state transition is durable before it is observable, and
//     results are flushed and closed before the terminal state is written,
//     so "done" on disk vouches for a complete results.csv;
//   - drain (SIGTERM) stops admitting, cancels running jobs with a parking
//     cause, checkpoints and re-queues them durably, and returns — a
//     restart picks every parked job up from its watermark;
//   - a kill -9 needs no cooperation at all: recovery rescans the store and
//     re-queues whatever was queued or running, and the ResultLog resume
//     discipline makes the recovered output byte-identical.

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"sync"
	"time"

	"bicoop"
)

// Sentinel errors surfaced through the HTTP layer.
var (
	// ErrQueueFull rejects a submission when the admission queue is at
	// capacity — the load-shedding signal (HTTP 429).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining rejects a submission during graceful shutdown (HTTP 503).
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrUnknownJob reports an id with no job behind it (HTTP 404).
	ErrUnknownJob = errors.New("service: unknown job")

	// errParkForDrain is the cancel cause distinguishing a drain (park the
	// job, re-queue durably) from a user cancel (terminal state canceled).
	errParkForDrain = errors.New("service: park for drain")
	// errCanceledByUser is the cancel cause of a DELETE.
	errCanceledByUser = errors.New("service: canceled by request")
)

// Options tunes a Service.
type Options struct {
	// QueueCap bounds the admission queue (jobs accepted but not yet
	// running); non-positive defaults to 16.
	QueueCap int
	// Executors is the number of jobs run concurrently; non-positive
	// defaults to 1 (each job shards internally via its Workers field).
	Executors int
	// CacheLog, when non-nil, is the durable tier of the engine's result
	// cache: the service flushes it after every job and on drain, so a
	// crash loses at most the running job's unflushed fills. The caller
	// owns opening (replay) and closing it — see OpenCacheLog.
	CacheLog *CacheLog
}

// job is the runtime state of one job; durable state lives in the store.
type job struct {
	id     string
	spec   JobSpec
	state  State
	errMsg string
	done   chan struct{}           // closed on terminal transition
	cancel context.CancelCauseFunc // non-nil while running
}

// Service runs jobs from a durable store through a bicoop engine.
type Service struct {
	store    *Store
	eng      *bicoop.Engine
	cacheLog *CacheLog

	queueCap  int
	executors int

	baseCtx    context.Context
	baseCancel context.CancelCauseFunc
	wg         sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []string
	jobs     map[string]*job
	reserved int // submissions between capacity check and durable create
	draining bool
}

// New assembles a service over an opened store. Call Start to recover
// persisted jobs and begin executing. ctx is the service's root: every job
// execution derives from it, and cancelling it (in addition to Shutdown)
// stops in-flight work.
func New(ctx context.Context, store *Store, eng *bicoop.Engine, opts Options) *Service {
	if opts.QueueCap <= 0 {
		opts.QueueCap = 16
	}
	if opts.Executors <= 0 {
		opts.Executors = 1
	}
	s := &Service{
		store:     store,
		eng:       eng,
		cacheLog:  opts.CacheLog,
		queueCap:  opts.QueueCap,
		executors: opts.Executors,
		jobs:      make(map[string]*job),
	}
	s.cond = sync.NewCond(&s.mu)
	s.baseCtx, s.baseCancel = context.WithCancelCause(ctx)
	return s
}

// Start recovers the store and launches the executor pool. Every persisted
// job that was queued or running goes back in the queue — capacity does not
// apply to recovery, because those jobs were already admitted — and resumes
// from its checkpoint when it next runs. Terminal jobs are indexed so
// status and results queries keep working across restarts.
func (s *Service) Start() error {
	recs, err := s.store.LoadAll()
	if err != nil {
		return err
	}
	s.mu.Lock()
	for _, rec := range recs {
		j := &job{id: rec.ID, spec: rec.Spec, state: rec.State, errMsg: rec.Error, done: make(chan struct{})}
		if rec.State.Terminal() {
			close(j.done)
			s.jobs[j.id] = j
			continue
		}
		// A job found "running" died with its process; park it back to
		// queued durably so the on-disk record matches what will happen.
		if rec.State == StateRunning {
			if err := s.store.SetState(rec.ID, StateQueued, ""); err != nil {
				s.mu.Unlock()
				return err
			}
		}
		j.state = StateQueued
		s.jobs[j.id] = j
		s.queue = append(s.queue, j.id)
	}
	s.mu.Unlock()
	for i := 0; i < s.executors; i++ {
		s.wg.Add(1)
		go s.executor()
	}
	return nil
}

// Submit validates, durably records, and enqueues a job, returning its id.
// A draining service refuses (ErrDraining); a full queue sheds
// (ErrQueueFull). The reservation protocol keeps the capacity check and the
// durable create atomic with respect to concurrent submissions without
// holding the lock across file writes.
func (s *Service) Submit(spec JobSpec) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return "", ErrDraining
	}
	if len(s.queue)+s.reserved >= s.queueCap {
		s.mu.Unlock()
		return "", ErrQueueFull
	}
	s.reserved++
	s.mu.Unlock()

	id, err := s.store.Create(spec)

	s.mu.Lock()
	s.reserved--
	if err != nil {
		s.mu.Unlock()
		return "", err
	}
	j := &job{id: id, spec: spec, state: StateQueued, done: make(chan struct{})}
	s.jobs[id] = j
	s.queue = append(s.queue, id)
	s.cond.Signal()
	s.mu.Unlock()
	return id, nil
}

// executor claims queued jobs FIFO and runs them to a terminal state (or a
// drain park) one at a time.
func (s *Service) executor() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.draining {
			s.cond.Wait()
		}
		if s.draining {
			s.mu.Unlock()
			return
		}
		id := s.queue[0]
		s.queue = s.queue[1:]
		j := s.jobs[id]
		ctx, cancel := context.WithCancelCause(s.baseCtx)
		j.cancel = cancel
		j.state = StateRunning
		s.mu.Unlock()

		if err := s.store.SetState(id, StateRunning, ""); err != nil {
			s.finish(j, ctx, fmt.Errorf("recording running state: %w", err))
			cancel(nil)
			continue
		}
		err := s.runJob(ctx, j)
		s.finish(j, ctx, err)
		cancel(nil)
	}
}

// runJob opens the job's durable result log and executes the spec. The log
// is flushed and closed BEFORE the caller writes the terminal state, so a
// durable "done" always vouches for a complete results.csv.
func (s *Service) runJob(ctx context.Context, j *job) error {
	if j.spec.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(j.spec.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	log, err := OpenResultLog(s.store.ResultsPath(j.id), s.store.CheckpointPath(j.id))
	if err != nil {
		return err
	}
	runErr := j.spec.run(ctx, s.eng, log)
	if cerr := log.Close(); cerr != nil && runErr == nil {
		runErr = cerr
	}
	// Make the job's cache fills durable before its terminal state, so a
	// repeat submission after a crash starts from a warm cache. A flush
	// failure surfaces like any other disk failure, but only when the job
	// itself succeeded — the results.csv contract stays with the
	// ResultLog above.
	if s.cacheLog != nil {
		if ferr := s.cacheLog.Flush(); ferr != nil && runErr == nil {
			runErr = ferr
		}
	}
	return runErr
}

// finish classifies a run's outcome and records it durably. Cancellation
// splits on its cause: a drain parks the job back to queued (a restart
// resumes it), a user cancel is terminal, a deadline is timeout — the same
// partial-results-are-valid contract as bcc's exit codes 130 and 124.
func (s *Service) finish(j *job, ctx context.Context, err error) {
	state, msg := StateDone, ""
	switch {
	case err == nil:
		state = StateDone
	case errors.Is(err, context.DeadlineExceeded):
		state = StateTimeout
	case errors.Is(err, context.Canceled) && errors.Is(context.Cause(ctx), errParkForDrain):
		state = StateQueued // parked: durable re-queue for the next process
	case errors.Is(err, context.Canceled):
		state = StateCanceled
	default:
		state, msg = StateFailed, err.Error()
	}
	if serr := s.store.SetState(j.id, state, msg); serr != nil && state == StateDone {
		// A job that ran to completion but could not record it must not
		// claim success; leave it queued on disk (state.json still says
		// running → re-queued on restart) and report the store failure.
		state, msg = StateFailed, serr.Error()
	}
	s.mu.Lock()
	j.state = state
	j.errMsg = msg
	j.cancel = nil
	if state.Terminal() {
		close(j.done)
	}
	s.mu.Unlock()
}

// Cancel stops a job: a queued job is removed from the queue and marked
// canceled; a running job's context is canceled and the executor records
// the terminal state once the engine unwinds (within one chunk). Canceling
// a terminal job is a no-op. Partial results already streamed remain valid.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return ErrUnknownJob
	}
	switch j.state {
	case StateQueued:
		for i, qid := range s.queue {
			if qid == id {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		j.state = StateCanceled
		close(j.done)
		s.mu.Unlock()
		return s.store.SetState(id, StateCanceled, "")
	case StateRunning:
		if j.cancel != nil {
			j.cancel(errCanceledByUser)
		}
		s.mu.Unlock()
		return nil
	default:
		s.mu.Unlock()
		return nil
	}
}

// JobStatus is a job's queryable state.
type JobStatus struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	// Watermark is the last checkpointed progress (grid points, curves or
	// runs, depending on the job kind); 0 until the first checkpoint.
	Watermark int `json:"watermark"`
}

// Status reports one job's state and checkpointed progress.
func (s *Service) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobStatus{}, ErrUnknownJob
	}
	st := JobStatus{ID: j.id, State: j.state, Error: j.errMsg}
	s.mu.Unlock()
	if ck, err := loadLogCheckpoint(s.store.CheckpointPath(id)); err == nil {
		st.Watermark = ck.Watermark
	}
	return st, nil
}

// List reports every known job in id order.
func (s *Service) List() []JobStatus {
	s.mu.Lock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Strings(ids)
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if st, err := s.Status(id); err == nil {
			out = append(out, st)
		}
	}
	return out
}

// Results returns the job's CSV output and its state. For a done job the
// whole file is returned; for every other state, live or ended by a
// failure, cancel or timeout, only the checkpointed prefix — the bytes the
// watermark vouches for — so a reader never observes rows a crash could
// retract, nor the torn tail a failed write left behind.
func (s *Service) Results(id string) ([]byte, State, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, "", ErrUnknownJob
	}
	state := j.state
	s.mu.Unlock()
	// Read the checkpoint before the CSV: the offset it records is already
	// in the file, whereas an offset read after the CSV could vouch for a
	// partial row the read caught mid-flush.
	limit := int64(-1)
	if state != StateDone {
		ck, err := loadLogCheckpoint(s.store.CheckpointPath(id))
		if err != nil {
			return nil, state, err
		}
		limit = ck.Offset
	}
	data, err := os.ReadFile(s.store.ResultsPath(id))
	if errors.Is(err, fs.ErrNotExist) {
		data, err = nil, nil // queued: no output yet
	}
	if err != nil {
		return nil, state, err
	}
	if limit >= 0 && int64(len(data)) > limit {
		data = data[:limit]
	}
	return data, state, nil
}

// Wait blocks until the job reaches a terminal state (returning its status)
// or ctx is done. A job parked by a drain does not become terminal; waiters
// should carry a context tied to the server's lifetime.
func (s *Service) Wait(ctx context.Context, id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	select {
	case <-j.done:
		return s.Status(id)
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
}

// Draining reports whether the service has begun shutting down.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully shuts the service down: admission stops (submissions get
// ErrDraining), running jobs are canceled with the parking cause — they
// checkpoint their delivered prefix and are durably re-queued — and Drain
// returns once every executor has unwound, or with ctx's error if the
// deadline passes first. Either way the store is consistent: a restart
// resumes exactly the parked jobs from their watermarks.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()
	// Cancel through the base context so jobs claimed concurrently with the
	// drain still observe the parking cause.
	s.baseCancel(errParkForDrain)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		if s.cacheLog != nil {
			return s.cacheLog.Flush()
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// CacheStats reports the engine's result-cache counters (all zero when
// the engine runs without a cache).
func (s *Service) CacheStats() bicoop.CacheStats {
	return s.eng.CacheStats()
}
