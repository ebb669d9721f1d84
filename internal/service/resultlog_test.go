package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bicoop"
)

func TestLoadLogCheckpointEmptyFileIsFresh(t *testing.T) {
	// A crash between creating the checkpoint file and the first completed
	// write leaves a zero-length file; that is a fresh run, not corruption.
	path := filepath.Join(t.TempDir(), "ck")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := loadLogCheckpoint(path)
	if err != nil || ck.Watermark != 0 || ck.Offset != 0 {
		t.Fatalf("empty checkpoint: (%+v, %v), want fresh run", ck, err)
	}
}

func TestLoadLogCheckpointCorruptFailsLoud(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck")
	for _, body := range []string{"not json", `{"watermark":-3,"offset":0}`, `{"watermark":1,"offset":-9}`} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := loadLogCheckpoint(path)
		if err == nil || !strings.Contains(err.Error(), "corrupt checkpoint") {
			t.Errorf("body %q: err = %v, want corrupt-checkpoint error", body, err)
		}
	}
}

func TestOpenResultLogResumeNeedsOutputFile(t *testing.T) {
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "ck")
	if err := os.WriteFile(ckPath, []byte(`{"watermark":5,"offset":100}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenResultLog(filepath.Join(dir, "missing.csv"), ckPath)
	if err == nil || !strings.Contains(err.Error(), "expects output") {
		t.Errorf("resume without the output file: err = %v", err)
	}
}

// interruptResume drives an emitter through deadline interruptions until it
// completes, then checks the final file is byte-identical to want.
func interruptResume(t *testing.T, want []byte, run func(ctx context.Context, log *ResultLog) error) {
	t.Helper()
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "out.csv")
	ckPath := filepath.Join(dir, "ck")
	for attempt := 0; attempt < 200; attempt++ {
		log, err := OpenResultLog(csvPath, ckPath)
		if err != nil {
			t.Fatal(err)
		}
		// The budget grows with the attempt so the loop always terminates.
		budget := time.Duration(2+3*attempt) * time.Millisecond
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		runErr := run(ctx, log)
		cancel()
		if cerr := log.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if runErr == nil {
			// The harness proves nothing unless a deadline actually fired
			// mid-run at least once before the completing attempt.
			if attempt == 0 {
				t.Fatal("run completed within the first budget; grow the workload so resume is exercised")
			}
			got, err := os.ReadFile(csvPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("after %d interruptions: output differs from uninterrupted run (got %d bytes, want %d)", attempt, len(got), len(want))
			}
			return
		}
		if !errors.Is(runErr, context.DeadlineExceeded) {
			t.Fatalf("attempt %d: %v", attempt, runErr)
		}
	}
	t.Fatal("run never completed within the attempt budget")
}

func TestRunSweepInterruptResumeByteIdentical(t *testing.T) {
	eng := bicoop.NewEngine()
	// 1001 powers x 5 protocols: with allocation-free rows the run must
	// still outlast the first interrupt budget on fast machines.
	spec := bicoop.SweepSpec{
		Base:     testScenario,
		PowersDB: powerAxis(0, 20, 0.02),
		Workers:  2,
	}
	want := referenceCSV(t, JobSpec{Sweep: &SweepJob{
		Base: spec.Base, PowersDB: spec.PowersDB, Workers: spec.Workers,
	}})
	interruptResume(t, want, func(ctx context.Context, log *ResultLog) error {
		return RunSweep(ctx, eng, spec, log)
	})
}

func TestRunRegionBatchInterruptResumeByteIdentical(t *testing.T) {
	eng := bicoop.NewEngine()
	spec := bicoop.RegionBatchSpec{
		Scenarios: []bicoop.Scenario{
			testScenario,
			{PowerDB: 5, GabDB: -7, GarDB: 0, GbrDB: 5},
			{PowerDB: 15, GabDB: -4, GarDB: 2, GbrDB: 3},
			{PowerDB: 0, GabDB: -10, GarDB: 3, GbrDB: 1},
			{PowerDB: 20, GabDB: -2, GarDB: 6, GbrDB: 0},
			{PowerDB: 10, GabDB: -12, GarDB: -1, GbrDB: 4},
		},
		Curves: []bicoop.RegionCurve{
			{Protocol: bicoop.MABC, Bound: bicoop.Inner},
			{Protocol: bicoop.TDBC, Bound: bicoop.Inner},
			{Protocol: bicoop.HBC, Bound: bicoop.Outer},
			{Protocol: bicoop.Naive4, Bound: bicoop.Inner},
			{Protocol: bicoop.HBC, Bound: bicoop.Inner},
		},
		Workers: 2,
	}
	// A curve is a handful of LP solves and one checkpoint save, so 48
	// scenarios x 5 curves (three of them LPs) keep the batch comfortably
	// larger than the first interrupt budget on fast machines and the
	// resume path is always exercised at least once.
	for i := 0; i < 42; i++ {
		spec.Scenarios = append(spec.Scenarios, bicoop.Scenario{
			PowerDB: float64(i % 21), GabDB: -7 - float64(i%5), GarDB: float64(i%7) - 3, GbrDB: float64(i % 6),
		})
	}
	want := referenceCSV(t, JobSpec{RegionBatch: &RegionJob{
		Scenarios: spec.Scenarios, Curves: spec.Curves, Workers: spec.Workers,
	}})
	interruptResume(t, want, func(ctx context.Context, log *ResultLog) error {
		return RunRegionBatch(ctx, eng, spec, log)
	})
}

func TestRunCampaignInterruptResumeByteIdentical(t *testing.T) {
	eng := bicoop.NewEngine()
	var specs []bicoop.SimSpec
	var jobs []SimJob
	for seed := int64(1); seed <= 10; seed++ {
		specs = append(specs, bicoop.SimSpec{
			Fading: &bicoop.FadingSpec{Scenario: testScenario},
			Trials: 500, Seed: seed,
		})
		jobs = append(jobs, SimJob{
			Fading: &bicoop.FadingSpec{Scenario: testScenario},
			Trials: 500, Seed: seed,
		})
	}
	spec := bicoop.CampaignSpec{Specs: specs, Workers: 2}
	want := referenceCSV(t, JobSpec{Campaign: &CampaignJob{Specs: jobs, Workers: 2}})
	interruptResume(t, want, func(ctx context.Context, log *ResultLog) error {
		return RunCampaign(ctx, eng, spec, log)
	})
}

// TestPlantedCheckpointJobResumesByteIdentical plants a half-run job the
// way a daemon killed mid-job leaves it — state running, rows past the
// checkpoint's offset, a torn last row — and requires the restarted
// service to finish it byte-identical to an uninterrupted run.
func TestPlantedCheckpointJobResumesByteIdentical(t *testing.T) {
	spec := JobSpec{Sweep: &SweepJob{Base: testScenario, PowersDB: powerAxis(0, 20, 0.5), Workers: 2}}
	want := referenceCSV(t, spec)
	// Checkpoint after the header and the first 64 points (one chunk).
	offset, watermark := 0, 64
	for lines := 0; lines < watermark+1; lines++ {
		offset += bytes.IndexByte(want[offset:], '\n') + 1
	}
	dir := filepath.Join(t.TempDir(), "jobs")
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	id, err := st.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetState(id, StateRunning, ""); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.ResultsPath(id), want[:offset+150], 0o644); err != nil {
		t.Fatal(err)
	}
	ck := fmt.Sprintf(`{"watermark":%d,"offset":%d}`, watermark, offset)
	if err := os.WriteFile(st.CheckpointPath(id), []byte(ck), 0o644); err != nil {
		t.Fatal(err)
	}

	svc, _ := newTestService(t, dir, Options{})
	if live, _, err := svc.Results(id); err == nil && !bytes.HasPrefix(want, live) {
		t.Fatalf("live results before resume are not a prefix of the final file")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	js, err := svc.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if js.State != StateDone || js.Watermark <= watermark {
		t.Fatalf("resumed job = %+v, want done past watermark %d", js, watermark)
	}
	got, err := os.ReadFile(st.ResultsPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed results differ from uninterrupted run: got %d bytes, want %d", len(got), len(want))
	}
}

// TestReadersRaceLiveCheckpoint polls Status and Results while a sweep job
// checkpoints (run it under -race). The watermark never decreases, a live
// checkpoint always loads (the tmp+rename save never exposes a torn file),
// and a live body is always a prefix of the final file that ends at a row
// boundary no later than the offset the checkpoint then records.
func TestReadersRaceLiveCheckpoint(t *testing.T) {
	svc, st := newTestService(t, filepath.Join(t.TempDir(), "jobs"), Options{})
	spec := longSweep(2)
	id, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	type body struct {
		data   []byte
		offset int64 // checkpoint offset read after the body
	}
	var (
		bodies []body
		last   int
		live   int
	)
	for {
		js, err := svc.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if js.Watermark < last {
			t.Fatalf("watermark went back from %d to %d", last, js.Watermark)
		}
		last = js.Watermark
		data, state, err := svc.Results(id)
		if err != nil {
			t.Fatalf("live Results: %v", err)
		}
		if state.Terminal() {
			if state != StateDone {
				t.Fatalf("job finished %s", state)
			}
			break
		}
		ck, err := loadLogCheckpoint(st.CheckpointPath(id))
		if err != nil {
			t.Fatalf("live checkpoint load: %v", err)
		}
		if ck.Watermark > 0 {
			live++
		}
		bodies = append(bodies, body{data, ck.Offset})
	}
	final, err := os.ReadFile(st.ResultsPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceCSV(t, spec); !bytes.Equal(final, want) {
		t.Fatalf("final results differ from uninterrupted run")
	}
	for i, b := range bodies {
		if !bytes.HasPrefix(final, b.data) {
			t.Fatalf("poll %d: live body (%d bytes) is not a prefix of the final file", i, len(b.data))
		}
		if int64(len(b.data)) > b.offset {
			t.Fatalf("poll %d: live body is %d bytes, past checkpoint offset %d", i, len(b.data), b.offset)
		}
		if len(b.data) > 0 && b.data[len(b.data)-1] != '\n' {
			t.Fatalf("poll %d: live body ends mid-row", i)
		}
	}
	if live == 0 {
		t.Fatal("no poll saw a checkpointed live job; grow the job so readers race the writer")
	}
	t.Logf("%d polls, %d of them past the first checkpoint", len(bodies), live)
}

// FuzzLoadLogCheckpoint feeds arbitrary checkpoint file contents to the
// loader's decoder: it must never panic, and whatever it accepts must be a
// usable resume state — never a negative watermark or offset.
func FuzzLoadLogCheckpoint(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(`{"watermark":5,"offset":100}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := parseLogCheckpoint(data)
		if err != nil {
			return
		}
		if ck.Watermark < 0 || ck.Offset < 0 {
			t.Fatalf("accepted %q as watermark %d offset %d", data, ck.Watermark, ck.Offset)
		}
	})
}
