package bicoop

// resume_loop_test.go — chaos-driven resume loops at the facade layer. The
// single-interrupt tests in resilience_test.go pin one crash/resume cycle;
// these drive a seeded schedule of repeated interruptions through a
// FileCheckpoint until the work completes, truncating collected yields to
// the loaded watermark before each resume exactly as a restarting process
// would, and require the stitched output to match an uninterrupted run.
// Interrupt budgets are drawn from a splitmix64 mix of the seed so a
// failing schedule replays exactly. A pooled run saves once per Workers
// units, so every save covers several; each loop also runs with a
// checkpointer that holds every save, so the workers run a full ticket
// window ahead of the emitter while it saves.

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"
)

var errChaosInterrupt = errors.New("chaos interrupt")

// interruptBudget draws attempt a's yield budget in [1, max]: at least one
// yield per attempt so the watermark always advances and the loop terminates.
func interruptBudget(seed uint64, a, max int) int {
	x := seed ^ uint64(a)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return 1 + int(x%uint64(max))
}

// holdingCheckpoint wraps a FileCheckpoint and holds each save for hold,
// long enough (when positive) for the pool to complete every chunk its
// tickets allow behind it. It counts the saves that advanced the watermark
// by more than one unit.
type holdingCheckpoint struct {
	*FileCheckpoint
	hold      time.Duration
	prev      int // last watermark saved or loaded
	coalesced int
}

func (c *holdingCheckpoint) Save(watermark int) error {
	time.Sleep(c.hold)
	if watermark-c.prev > 1 {
		c.coalesced++
	}
	c.prev = watermark
	return c.FileCheckpoint.Save(watermark)
}

// coalesceHold is how long the holding checkpointer keeps each save: far
// longer than one curve or one 60-trial run takes on two workers.
const coalesceHold = 10 * time.Millisecond

// TestRegionBatchResumeLoop interrupts a region batch over and over — a
// fresh run each attempt, resumed via the curve-unit watermark a restarting
// process would read back from disk — and checks the stitched curve sequence
// matches an uninterrupted batch vertex for vertex.
func TestRegionBatchResumeLoop(t *testing.T) { regionBatchResumeLoop(t, 0) }

// TestRegionBatchResumeLoopCoalescedSaves runs the same loop with every
// save held, so the workers finish curves past the watermark being saved.
func TestRegionBatchResumeLoopCoalescedSaves(t *testing.T) {
	regionBatchResumeLoop(t, coalesceHold)
}

func regionBatchResumeLoop(t *testing.T, hold time.Duration) {
	eng := NewEngine()
	ctx := context.Background()
	base := RegionBatchSpec{
		Scenarios: []Scenario{
			{PowerDB: 10, GabDB: -7, GarDB: 0, GbrDB: 5},
			{PowerDB: 0, GabDB: -7, GarDB: 0, GbrDB: 5},
			{PowerDB: 15, GabDB: -4, GarDB: 2, GbrDB: 3},
		},
		Curves: []RegionCurve{
			{Protocol: MABC, Bound: Inner},
			{Protocol: TDBC, Bound: Inner},
			{Protocol: HBC, Bound: Outer},
		},
		Workers: 2,
	}
	var full []RegionBatchPoint
	if err := eng.RegionBatch(ctx, base, func(pt RegionBatchPoint) error {
		full = append(full, pt)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	nCurves := base.Size()

	ck := &holdingCheckpoint{FileCheckpoint: &FileCheckpoint{Path: filepath.Join(t.TempDir(), "region.ck")}, hold: hold}
	var collected []RegionBatchPoint
	interruptions := 0
	for attempt := 0; attempt < 4*nCurves; attempt++ {
		watermark, err := ck.Load()
		if err != nil {
			t.Fatal(err)
		}
		// A crash discards delivered-but-uncheckpointed curves; the resumed
		// run re-yields them, so drop them from the collection first.
		if watermark < len(collected) {
			collected = collected[:watermark]
		}
		ck.prev = watermark
		spec := base
		spec.Start = watermark
		spec.Checkpoint = ck
		budget := interruptBudget(0xC0FFEE, attempt, 3)
		yielded := 0
		err = eng.RegionBatch(ctx, spec, func(pt RegionBatchPoint) error {
			if yielded == budget {
				return errChaosInterrupt
			}
			yielded++
			collected = append(collected, pt)
			return nil
		})
		if err == nil {
			if interruptions == 0 {
				t.Fatal("batch completed without a single interruption; shrink the budgets")
			}
			if len(collected) != nCurves {
				t.Fatalf("stitched run yielded %d of %d curves", len(collected), nCurves)
			}
			for i := range collected {
				got, want := collected[i], full[i]
				if got.ScenarioIdx != want.ScenarioIdx || got.CurveIdx != want.CurveIdx {
					t.Fatalf("curve %d coordinates differ after %d interruptions", i, interruptions)
				}
				gv, wv := got.Region.Vertices(), want.Region.Vertices()
				if len(gv) != len(wv) {
					t.Fatalf("curve %d: %d vs %d vertices", i, len(gv), len(wv))
				}
				for j := range gv {
					if gv[j] != wv[j] {
						t.Fatalf("curve %d vertex %d differs after %d interruptions", i, j, interruptions)
					}
				}
			}
			requireCoalesced(t, ck)
			t.Logf("region batch stitched back together across %d interruptions", interruptions)
			return
		}
		if !errors.Is(err, errChaosInterrupt) {
			t.Fatal(err)
		}
		interruptions++
	}
	t.Fatal("region batch never completed; the watermark is not advancing between attempts")
}

// TestCampaignResumeLoop drives the same schedule through a simulation
// campaign: per-spec watermarks, runs below Start skipped on resume, and
// final statistics identical to an uninterrupted campaign (runs are
// seed-deterministic).
func TestCampaignResumeLoop(t *testing.T) { campaignResumeLoop(t, 0) }

// TestCampaignResumeLoopCoalescedSaves runs the same loop with every save
// held, so the workers finish runs past the watermark being saved.
func TestCampaignResumeLoopCoalescedSaves(t *testing.T) {
	campaignResumeLoop(t, coalesceHold)
}

func campaignResumeLoop(t *testing.T, hold time.Duration) {
	eng := NewEngine()
	ctx := context.Background()
	scen := Scenario{PowerDB: 5, GabDB: -7, GarDB: 0, GbrDB: 5}
	campaign := func() CampaignSpec {
		var specs []SimSpec
		for i := 0; i < 8; i++ {
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

	ck := &holdingCheckpoint{FileCheckpoint: &FileCheckpoint{Path: filepath.Join(t.TempDir(), "campaign.ck")}, hold: hold}
	nRuns := len(campaign().Specs)
	got := make([]SimResult, nRuns)
	interruptions := 0
	for attempt := 0; attempt < 4*nRuns; attempt++ {
		watermark, err := ck.Load()
		if err != nil {
			t.Fatal(err)
		}
		ck.prev = watermark
		spec := campaign()
		spec.Start = watermark
		spec.Checkpoint = ck
		budget := interruptBudget(0xBADC0DE, attempt, 2)
		yielded := 0
		_, err = eng.SimulateBatch(ctx, spec, func(i int, r SimResult) error {
			if yielded == budget {
				return errChaosInterrupt
			}
			yielded++
			// Re-yields of delivered-but-uncheckpointed runs overwrite with
			// identical values (seed-determinism), so last-write-wins is safe.
			got[i] = r
			return nil
		})
		if err == nil {
			if interruptions == 0 {
				t.Fatal("campaign completed without a single interruption; shrink the budgets")
			}
			for i := range full {
				g, w := got[i].Fading[TDBC], full[i].Fading[TDBC]
				if g != w {
					t.Fatalf("run %d stats differ after %d interruptions: %+v vs %+v", i, interruptions, g, w)
				}
			}
			requireCoalesced(t, ck)
			t.Logf("campaign stitched back together across %d interruptions", interruptions)
			return
		}
		if !errors.Is(err, errChaosInterrupt) {
			t.Fatal(err)
		}
		interruptions++
	}
	t.Fatal("campaign never completed; the watermark is not advancing between attempts")
}

// requireCoalesced fails a holding-checkpointer loop in which no save ever
// covered more than one unit: it would have tested nothing new.
func requireCoalesced(t *testing.T, ck *holdingCheckpoint) {
	t.Helper()
	if ck.hold <= 0 {
		return
	}
	if ck.coalesced == 0 {
		t.Fatal("no save covered more than one completion; hold the saves longer")
	}
	t.Logf("%d coalesced saves", ck.coalesced)
}
