package bicoop

// resilience_test.go — facade-level pins for the resilience layer: the
// checkpoint/resume round trip on all three streaming APIs (the
// concatenated yields of an interrupted + resumed run must equal an
// uninterrupted run), the chunk and panic errors as callers see them, and
// the FileCheckpoint primitive. White-box so a panic can be injected into
// the sharded core directly.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bicoop/internal/sim"
	"bicoop/internal/sweep"
)

func TestFileCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck")
	ck := &FileCheckpoint{Path: path}
	if w, err := ck.Load(); err != nil || w != 0 {
		t.Fatalf("missing file: Load = (%d, %v), want (0, nil)", w, err)
	}
	for _, w := range []int{5, 192, 192, 4096} {
		if err := ck.Save(w); err != nil {
			t.Fatal(err)
		}
		got, err := ck.Load()
		if err != nil || got != w {
			t.Fatalf("Load after Save(%d) = (%d, %v)", w, got, err)
		}
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Error("temp file left behind after Save")
	}
	if err := os.WriteFile(path, []byte("not a number"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ck.Load(); err == nil {
		t.Error("corrupt checkpoint must not load silently")
	}
}

func TestFileCheckpointEmptyFile(t *testing.T) {
	// A crash between creating the checkpoint file and the first completed
	// write leaves a zero-length file. That is "no checkpoint yet", not
	// corruption: resume must start from 0, not fail loud.
	for name, body := range map[string][]byte{"empty": nil, "whitespace": []byte(" \n")} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ck")
			if err := os.WriteFile(path, body, 0o644); err != nil {
				t.Fatal(err)
			}
			ck := &FileCheckpoint{Path: path}
			if w, err := ck.Load(); err != nil || w != 0 {
				t.Fatalf("Load of %s checkpoint = (%d, %v), want (0, nil)", name, w, err)
			}
		})
	}
}

// TestResilienceErrorsThroughFacade pins that a run's chunk and panic
// errors reach callers through the facade's "bicoop: %w" wrapping:
// errors.As finds the *ChunkError with its coordinates and the *PanicError
// with its value and stack, and errors.Is finds the underlying cause.
func TestResilienceErrorsThroughFacade(t *testing.T) {
	// A campaign whose second run fails at run time (its rates lie outside
	// the TDBC inner bound, which only the run's LP finds out).
	links := ErasureLinks{EpsAR: 0.2, EpsBR: 0.1, EpsAB: 0.6}
	ok := SimSpec{Trials: 4, Seed: 1, BitTrueTDBC: &BitTrueTDBCSpec{Links: links, Rates: RatePoint{Ra: 0.2, Rb: 0.2}, BlockLength: 64}}
	bad := ok
	bad.BitTrueTDBC = &BitTrueTDBCSpec{Links: links, Rates: RatePoint{Ra: 0.9, Rb: 0.9}, BlockLength: 64}
	_, err := NewEngine().SimulateBatch(context.Background(), CampaignSpec{Specs: []SimSpec{ok, bad, ok}, Workers: 1}, nil)
	var cerr *ChunkError
	if !errors.As(err, &cerr) {
		t.Fatalf("campaign error %v does not reach a *ChunkError", err)
	}
	if cerr.Chunk != 1 || cerr.Start != 1 || cerr.End != 2 {
		t.Errorf("ChunkError coordinates = %+v, want chunk 1 at [1,2)", cerr)
	}
	if !errors.Is(err, sim.ErrInfeasibleRates) {
		t.Errorf("campaign error %v does not reach its cause", err)
	}

	// A workload panic contained by the core, wrapped as every facade entry
	// point wraps a core error.
	_, err = sweep.RunCore(context.Background(), 4, 1, sweep.Options{Workers: 2}, sweep.Hooks[struct{}]{},
		func(_ struct{}, lo, hi int) error {
			if lo == 2 {
				panic("boom")
			}
			return nil
		}, nil)
	err = fmt.Errorf("bicoop: %w", err)
	if !errors.As(err, &cerr) || cerr.Chunk != 2 || cerr.Start != 2 || cerr.End != 3 {
		t.Fatalf("panic error %v does not reach a *ChunkError for chunk 2 at [2,3)", err)
	}
	var perr *PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("panic error %v does not reach a *PanicError", err)
	}
	if perr.Value != "boom" || len(perr.Stack) == 0 {
		t.Errorf("panic payload lost: value %v, %d stack bytes", perr.Value, len(perr.Stack))
	}
	if want := "bicoop: chunk 2 [2,3): panic: boom"; err.Error() != want {
		t.Errorf("error text = %q, want %q", err.Error(), want)
	}
}

// sweepKey is the comparable projection of a SweepPoint used to diff runs.
type sweepKey struct {
	Index       int
	Sum, Ra, Rb float64
}

func keyOf(pt SweepPoint) sweepKey {
	return sweepKey{pt.Index, pt.Result.Sum, pt.Result.Point.Ra, pt.Result.Point.Rb}
}

// resumeSpec is a 300-point grid (2 powers × 30 placements × 5 protocols),
// wide enough to span several 64-point chunks so an interruption lands
// between checkpoint saves.
func resumeSpec() SweepSpec {
	spec := SweepSpec{PowersDB: []float64{5, 15}}
	for i := 0; i < 30; i++ {
		spec.Placements = append(spec.Placements,
			RelayPlacement{Pos: 0.05 + 0.9*float64(i)/29, Exponent: 3})
	}
	return spec
}

// TestSweepCheckpointResume pins the headline recipe: a sweep interrupted
// mid-run, then resumed from the saved watermark, yields — concatenated —
// exactly what one uninterrupted sweep yields.
func TestSweepCheckpointResume(t *testing.T) {
	eng := NewEngine()
	ctx := context.Background()
	spec := resumeSpec()
	full, err := eng.SweepAll(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	n := spec.Size()
	if len(full) != n {
		t.Fatalf("full run yielded %d of %d points", len(full), n)
	}

	ck := &FileCheckpoint{Path: filepath.Join(t.TempDir(), "sweep.ck")}
	interrupted := errors.New("interrupted")
	var first []SweepPoint
	spec.Checkpoint = ck
	err = eng.Sweep(ctx, spec, func(pt SweepPoint) error {
		if len(first) == 200 {
			return interrupted
		}
		first = append(first, pt)
		return nil
	})
	if err != interrupted {
		t.Fatalf("err = %v, want the yield error verbatim", err)
	}
	watermark, err := ck.Load()
	if err != nil {
		t.Fatal(err)
	}
	if watermark <= 0 || watermark > len(first) {
		t.Fatalf("watermark %d after %d yields — a save must never overstate delivery", watermark, len(first))
	}

	spec.Start = watermark
	var resumed []SweepPoint
	if err := eng.Sweep(ctx, spec, func(pt SweepPoint) error {
		resumed = append(resumed, pt)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	combined := append(append([]SweepPoint(nil), first[:watermark]...), resumed...)
	if len(combined) != n {
		t.Fatalf("interrupted+resumed yielded %d points, want %d", len(combined), n)
	}
	for i := range combined {
		if keyOf(combined[i]) != keyOf(full[i]) {
			t.Fatalf("point %d differs after resume: %+v vs %+v", i, keyOf(combined[i]), keyOf(full[i]))
		}
	}
	if final, _ := ck.Load(); final != n {
		t.Errorf("final watermark %d, want %d", final, n)
	}
}

// TestRegionBatchCheckpointResume pins resume in curve units: interrupt
// after some curves, resume from the saved curve count, and the
// concatenated curves match an uninterrupted batch vertex for vertex.
func TestRegionBatchCheckpointResume(t *testing.T) {
	eng := NewEngine()
	ctx := context.Background()
	spec := RegionBatchSpec{
		Scenarios: []Scenario{
			{PowerDB: 10, GabDB: -7, GarDB: 0, GbrDB: 5},
			{PowerDB: 0, GabDB: -7, GarDB: 0, GbrDB: 5},
		},
		Curves: []RegionCurve{
			{Protocol: MABC, Bound: Inner},
			{Protocol: TDBC, Bound: Inner},
			{Protocol: HBC, Bound: Inner},
		},
	}
	var full []RegionBatchPoint
	if err := eng.RegionBatch(ctx, spec, func(pt RegionBatchPoint) error {
		full = append(full, pt)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	nCurves := spec.Size()
	if len(full) != nCurves {
		t.Fatalf("full batch yielded %d of %d curves", len(full), nCurves)
	}

	ck := &FileCheckpoint{Path: filepath.Join(t.TempDir(), "region.ck")}
	interrupted := errors.New("interrupted")
	var first []RegionBatchPoint
	spec.Checkpoint = ck
	err := eng.RegionBatch(ctx, spec, func(pt RegionBatchPoint) error {
		if len(first) == 4 {
			return interrupted
		}
		first = append(first, pt)
		return nil
	})
	if err != interrupted {
		t.Fatalf("err = %v, want the yield error verbatim", err)
	}
	watermark, err := ck.Load()
	if err != nil {
		t.Fatal(err)
	}
	if watermark <= 0 || watermark > len(first) {
		t.Fatalf("curve watermark %d after %d yielded curves", watermark, len(first))
	}

	spec.Start = watermark
	var resumed []RegionBatchPoint
	if err := eng.RegionBatch(ctx, spec, func(pt RegionBatchPoint) error {
		resumed = append(resumed, pt)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	combined := append(append([]RegionBatchPoint(nil), first[:watermark]...), resumed...)
	if len(combined) != nCurves {
		t.Fatalf("interrupted+resumed yielded %d curves, want %d", len(combined), nCurves)
	}
	for i := range combined {
		got, want := combined[i], full[i]
		if got.ScenarioIdx != want.ScenarioIdx || got.CurveIdx != want.CurveIdx {
			t.Fatalf("curve %d coordinates differ after resume", i)
		}
		gv, wv := got.Region.Vertices(), want.Region.Vertices()
		if len(gv) != len(wv) {
			t.Fatalf("curve %d: %d vs %d vertices after resume", i, len(gv), len(wv))
		}
		for j := range gv {
			if gv[j] != wv[j] {
				t.Fatalf("curve %d vertex %d differs after resume: %+v vs %+v", i, j, gv[j], wv[j])
			}
		}
	}
}

// TestSimulateBatchCheckpointResume pins campaign resume: completed-run
// watermarks, zero-valued entries below Start in the returned slice, and
// statistics identical to an uninterrupted campaign (runs are
// seed-deterministic).
func TestSimulateBatchCheckpointResume(t *testing.T) {
	eng := NewEngine()
	ctx := context.Background()
	scen := Scenario{PowerDB: 5, GabDB: -7, GarDB: 0, GbrDB: 5}
	campaign := func() CampaignSpec {
		var specs []SimSpec
		for i := 0; i < 6; i++ {
			specs = append(specs, SimSpec{
				Fading: &FadingSpec{Scenario: scen, Protocols: []Protocol{TDBC},
					Target: RatePoint{Ra: 0.4, Rb: 0.4}},
				Trials: 60,
				Seed:   int64(i + 1),
			})
		}
		return CampaignSpec{Specs: specs, Workers: 2}
	}

	full, err := eng.SimulateBatch(ctx, campaign(), nil)
	if err != nil {
		t.Fatal(err)
	}

	ck := &FileCheckpoint{Path: filepath.Join(t.TempDir(), "campaign.ck")}
	interrupted := errors.New("interrupted")
	spec := campaign()
	spec.Checkpoint = ck
	yielded := 0
	_, err = eng.SimulateBatch(ctx, spec, func(i int, r SimResult) error {
		if yielded == 3 {
			return interrupted
		}
		yielded++
		return nil
	})
	if err != interrupted {
		t.Fatalf("err = %v, want the yield error verbatim", err)
	}
	watermark, err := ck.Load()
	if err != nil {
		t.Fatal(err)
	}
	if watermark <= 0 || watermark > yielded {
		t.Fatalf("watermark %d after %d yielded runs", watermark, yielded)
	}

	spec = campaign()
	spec.Start = watermark
	res, err := eng.SimulateBatch(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(full) {
		t.Fatalf("resumed campaign returned %d of %d results", len(res), len(full))
	}
	for i := 0; i < watermark; i++ {
		if res[i].Fading != nil || res[i].Trials != 0 {
			t.Errorf("entry %d below Start should be zero, got %+v", i, res[i])
		}
	}
	for i := watermark; i < len(full); i++ {
		got, want := res[i].Fading[TDBC], full[i].Fading[TDBC]
		if got != want {
			t.Errorf("run %d stats differ after resume: %+v vs %+v", i, got, want)
		}
	}
}

// TestNegativeStartRejected pins the Start validation on all three specs.
func TestNegativeStartRejected(t *testing.T) {
	eng := NewEngine()
	ctx := context.Background()
	discardSweep := func(SweepPoint) error { return nil }
	if err := eng.Sweep(ctx, SweepSpec{Start: -1}, discardSweep); !errors.Is(err, ErrInvalidSweepSpec) {
		t.Errorf("Sweep: %v, want ErrInvalidSweepSpec", err)
	}
	rspec := RegionBatchSpec{
		Scenarios: []Scenario{{PowerDB: 10, GabDB: -7, GarDB: 0, GbrDB: 5}},
		Curves:    []RegionCurve{{Protocol: TDBC, Bound: Inner}},
		Start:     -1,
	}
	if err := eng.RegionBatch(ctx, rspec, func(RegionBatchPoint) error { return nil }); !errors.Is(err, ErrInvalidRegionSpec) {
		t.Errorf("RegionBatch: %v, want ErrInvalidRegionSpec", err)
	}
	cspec := CampaignSpec{
		Specs: []SimSpec{{Fading: &FadingSpec{Scenario: Scenario{PowerDB: 5, GabDB: -7, GarDB: 0, GbrDB: 5}}, Trials: 10}},
		Start: -1,
	}
	if _, err := eng.SimulateBatch(ctx, cspec, nil); !errors.Is(err, ErrInvalidSimSpec) {
		t.Errorf("SimulateBatch: %v, want ErrInvalidSimSpec", err)
	}
}
