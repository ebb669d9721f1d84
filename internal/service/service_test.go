package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bicoop"
)

// testScenario is the paper's Fig 3 reference geometry.
var testScenario = bicoop.Scenario{PowerDB: 10, GabDB: -7, GarDB: 0, GbrDB: 5}

// longSweep is a grid big enough that a job is reliably observable in the
// running state and interruptible mid-flight — tens of thousands of LP
// points (the LPs run in tens of microseconds, so "long" needs to be
// genuinely large).
func longSweep(workers int) JobSpec {
	spec := JobSpec{Sweep: &SweepJob{
		Base:     testScenario,
		Workers:  workers,
		PowersDB: powerAxis(0, 20, 0.1),
	}}
	for i := 0; i < 24; i++ {
		spec.Sweep.Placements = append(spec.Sweep.Placements, bicoop.RelayPlacement{
			Pos: 0.05 + 0.9*float64(i)/23, Exponent: 3, GabDB: testScenario.GabDB,
		})
	}
	return spec
}

// powerAxis builds an index-stepped power axis (no accumulated drift), the
// same construction the CLI uses so resumed runs rebuild identical grids.
func powerAxis(lo, hi, step float64) []float64 {
	var out []float64
	for i := 0; ; i++ {
		p := lo + float64(i)*step
		if p > hi+1e-9 {
			return out
		}
		out = append(out, p)
	}
}

// newTestService assembles a service over a fresh store in dir.
func newTestService(t *testing.T, dir string, opts Options) (*Service, *Store) {
	t.Helper()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(context.Background(), st, bicoop.NewEngine(), opts)
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Drain(ctx)
	})
	return svc, st
}

// referenceCSV runs the job spec's engine call uninterrupted into a file and
// returns the bytes — the ground truth recovered runs must match exactly.
func referenceCSV(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ref.csv")
	log, err := OpenResultLog(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.run(context.Background(), bicoop.NewEngine(), log); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func waitState(t *testing.T, svc *Service, id string, want State, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st, err := svc.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	st, _ := svc.Status(id)
	t.Fatalf("job %s never reached state %s (currently %s, err %q)", id, want, st.State, st.Error)
}

func TestJobRunsToDone(t *testing.T) {
	svc, _ := newTestService(t, filepath.Join(t.TempDir(), "jobs"), Options{})
	spec := tinySweep(0)
	id, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := svc.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", st.State, st.Error)
	}
	got, state, err := svc.Results(id)
	if err != nil || state != StateDone {
		t.Fatalf("Results: state %s, err %v", state, err)
	}
	want := referenceCSV(t, spec)
	if !bytes.Equal(got, want) {
		t.Errorf("service results differ from direct engine run:\ngot  %d bytes\nwant %d bytes", len(got), len(want))
	}
}

func TestSubmitRejectsInvalidSpec(t *testing.T) {
	svc, _ := newTestService(t, filepath.Join(t.TempDir(), "jobs"), Options{})
	if _, err := svc.Submit(JobSpec{}); !errors.Is(err, ErrInvalidJob) {
		t.Errorf("empty job: err = %v, want ErrInvalidJob", err)
	}
	two := tinySweep(0)
	two.Campaign = &CampaignJob{Specs: []SimJob{{Fading: &bicoop.FadingSpec{Scenario: testScenario}}}}
	if _, err := svc.Submit(two); !errors.Is(err, ErrInvalidJob) {
		t.Errorf("two variants: err = %v, want ErrInvalidJob", err)
	}
	region := JobSpec{RegionBatch: &RegionJob{Scenarios: []bicoop.Scenario{testScenario}}}
	if _, err := svc.Submit(region); !errors.Is(err, bicoop.ErrInvalidRegionSpec) {
		t.Errorf("region with no curves: err = %v, want ErrInvalidRegionSpec", err)
	}
	// "retry" is not part of the wire form: a submission carrying it is an
	// unknown field like any typo, rejected before admission.
	withRetry := `{"sweep": {"base": {"PowerDB": 10, "GabDB": -7, "GarDB": 0, "GbrDB": 5}}, "retry": {"max_attempts": 3}}`
	if _, err := ParseJobSpec([]byte(withRetry)); !errors.Is(err, ErrInvalidJob) {
		t.Errorf(`submission with "retry": err = %v, want ErrInvalidJob`, err)
	}
}

// TestLegacyRetrySpecRecovers pins the other side of the wire change: a
// spec.json an older daemon stored with a "retry" policy still loads (the
// store decodes leniently), and the restarted service runs the job to
// completion with results byte-identical to a run that never had one.
func TestLegacyRetrySpecRecovers(t *testing.T) {
	spec := JobSpec{Sweep: &SweepJob{Base: testScenario, PowersDB: powerAxis(0, 20, 1), Workers: 2}}
	for i := 0; i < 4; i++ {
		spec.Sweep.Placements = append(spec.Sweep.Placements, bicoop.RelayPlacement{
			Pos: 0.2 + 0.2*float64(i), Exponent: 3, GabDB: testScenario.GabDB,
		})
	}
	want := referenceCSV(t, spec)
	dir := filepath.Join(t.TempDir(), "jobs")
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	id, err := st.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	data, err := os.ReadFile(st.specPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	fields["retry"] = json.RawMessage(`{"max_attempts": 3, "base_delay_ms": 10}`)
	if data, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.specPath(id), data, 0o644); err != nil {
		t.Fatal(err)
	}

	svc, _ := newTestService(t, dir, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	js, err := svc.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if js.State != StateDone {
		t.Fatalf("legacy job state = %s (err %q), want done", js.State, js.Error)
	}
	got, err := os.ReadFile(st.ResultsPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("legacy job results differ from a retry-free run: got %d bytes, want %d", len(got), len(want))
	}
}

func TestQueueShedsWhenFull(t *testing.T) {
	svc, _ := newTestService(t, filepath.Join(t.TempDir(), "jobs"), Options{QueueCap: 2, Executors: 1})
	// Occupy the single executor with a long job, then fill the queue.
	id, err := svc.Submit(longSweep(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, id, StateRunning, 10*time.Second)
	for i := 0; i < 2; i++ {
		if _, err := svc.Submit(tinySweep(0)); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if _, err := svc.Submit(tinySweep(0)); !errors.Is(err, ErrQueueFull) {
		t.Errorf("over-capacity submit: err = %v, want ErrQueueFull", err)
	}
}

func TestCancelRunningJobKeepsValidPrefix(t *testing.T) {
	spec := longSweep(2)
	want := referenceCSV(t, spec)
	svc, _ := newTestService(t, filepath.Join(t.TempDir(), "jobs"), Options{})
	id, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let it make some checkpointed progress before canceling.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := svc.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Watermark > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := svc.Cancel(id); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := svc.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("state = %s (err %q), want canceled", st.State, st.Error)
	}
	got, _, err := svc.Results(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || !bytes.HasPrefix(want, got) {
		t.Errorf("canceled job's %d result bytes are not a prefix of the uninterrupted run", len(got))
	}
}

func TestCancelQueuedJob(t *testing.T) {
	svc, _ := newTestService(t, filepath.Join(t.TempDir(), "jobs"), Options{Executors: 1})
	blocker, err := svc.Submit(longSweep(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, blocker, StateRunning, 10*time.Second)
	id, err := svc.Submit(tinySweep(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Cancel(id); err != nil {
		t.Fatal(err)
	}
	st, err := svc.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Errorf("canceled queued job state = %s, want canceled", st.State)
	}
}

func TestJobDeadlineTimesOut(t *testing.T) {
	svc, _ := newTestService(t, filepath.Join(t.TempDir(), "jobs"), Options{})
	spec := longSweep(1)
	spec.TimeoutMS = 50
	id, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := svc.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateTimeout {
		t.Errorf("state = %s (err %q), want timeout", st.State, st.Error)
	}
}

func TestDrainParksRunningJobAndRestartResumes(t *testing.T) {
	spec := longSweep(2)
	want := referenceCSV(t, spec)
	dir := filepath.Join(t.TempDir(), "jobs")

	st1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc1 := New(context.Background(), st1, bicoop.NewEngine(), Options{})
	if err := svc1.Start(); err != nil {
		t.Fatal(err)
	}
	id, err := svc1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for checkpointed progress so the drain actually parks mid-job.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		js, err := svc1.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if js.Watermark > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := svc1.Drain(ctx); err != nil {
		t.Fatalf("drain did not finish within deadline: %v", err)
	}
	cancel()
	if _, err := svc1.Submit(tinySweep(0)); !errors.Is(err, ErrDraining) {
		t.Errorf("submit while draining: err = %v, want ErrDraining", err)
	}
	rec, err := st1.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateQueued {
		t.Fatalf("drained job durable state = %s, want queued (parked)", rec.State)
	}

	// "Restart": a fresh service over the same store resumes the parked job.
	svc2, _ := newTestService(t, dir, Options{})
	wctx, wcancel := context.WithTimeout(context.Background(), time.Minute)
	defer wcancel()
	js, err := svc2.Wait(wctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if js.State != StateDone {
		t.Fatalf("resumed job state = %s (err %q), want done", js.State, js.Error)
	}
	got, _, err := svc2.Results(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("drain+resume results differ from uninterrupted run: got %d bytes, want %d", len(got), len(want))
	}
}

func TestCampaignJobRunsToDone(t *testing.T) {
	spec := JobSpec{Campaign: &CampaignJob{Specs: []SimJob{
		{Fading: &bicoop.FadingSpec{Scenario: testScenario}, Trials: 200, Seed: 7},
		{BitTrueTDBC: &bicoop.BitTrueTDBCSpec{
			Links: bicoop.ErasureLinks{EpsAR: 0.1, EpsBR: 0.1, EpsAB: 0.5},
			Rates: bicoop.RatePoint{Ra: 0.2, Rb: 0.2}, BlockLength: 64,
		}, Trials: 50, Seed: 3},
	}}}
	svc, _ := newTestService(t, filepath.Join(t.TempDir(), "jobs"), Options{})
	id, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := svc.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", st.State, st.Error)
	}
	got, _, err := svc.Results(id)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceCSV(t, spec); !bytes.Equal(got, want) {
		t.Errorf("campaign results differ from direct run")
	}
}

// TestResultsBodyOfEndedJobs pins which bytes Results serves once a job has
// ended. A job that failed, was canceled or timed out serves exactly the
// prefix its checkpoint vouches for, even when a failed write left a torn
// row past it; a done job serves its whole file, byte for byte.
func TestResultsBodyOfEndedJobs(t *testing.T) {
	const vouched, torn = "p,proto,sum\n0,MABC,1.5\n", "1,MAB"
	dir := filepath.Join(t.TempDir(), "jobs")
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, state := range []State{StateFailed, StateCanceled, StateTimeout, StateDone} {
		id, err := st.Create(longSweep(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.ResultsPath(id), []byte(vouched+torn), 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := json.Marshal(logCheckpoint{Watermark: 1, Offset: int64(len(vouched))})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.CheckpointPath(id), ck, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := st.SetState(id, state, ""); err != nil {
			t.Fatal(err)
		}
		want[id] = vouched
		if state == StateDone {
			want[id] = vouched + torn
		}
	}
	svc, _ := newTestService(t, dir, Options{})
	for id, w := range want {
		got, state, err := svc.Results(id)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != w {
			t.Errorf("%s job: Results = %q, want %q", state, got, w)
		}
	}
}
