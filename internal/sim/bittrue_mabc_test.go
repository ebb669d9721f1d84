package sim

import (
	"context"
	"errors"
	"testing"

	"bicoop/internal/stats"
	"bicoop/internal/xmath"
)

func TestMABCComputeForwardBound(t *testing.T) {
	tests := []struct {
		name                 string
		epsMAC, epsRA, epsRB float64
		wantRate             float64
	}{
		{
			// Symmetric clean-ish links: cMAC = cBC = 0.8 -> R = 0.4.
			name: "symmetric", epsMAC: 0.2, epsRA: 0.2, epsRB: 0.2, wantRate: 0.4,
		},
		{
			// cMAC = 0.9, cBC = min(0.8, 0.6) = 0.6 -> d1 = 0.4, R = 0.36.
			name: "asymmetric", epsMAC: 0.1, epsRA: 0.2, epsRB: 0.4, wantRate: 0.36,
		},
		{name: "dead MAC", epsMAC: 1, epsRA: 0.1, epsRB: 0.1, wantRate: 0},
		{name: "dead broadcast", epsMAC: 0.1, epsRA: 1, epsRB: 0.1, wantRate: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rate, durations := MABCComputeForwardBound(tt.epsMAC, tt.epsRA, tt.epsRB)
			if !xmath.ApproxEqual(rate, tt.wantRate, 1e-12) {
				t.Errorf("rate = %v, want %v", rate, tt.wantRate)
			}
			if !xmath.ApproxEqual(xmath.Sum(durations), 1, 1e-12) {
				t.Errorf("durations %v do not sum to 1", durations)
			}
			if rate > 0 {
				// The bound is the equalizer of the two phase constraints.
				if !xmath.ApproxEqual(durations[0]*(1-tt.epsMAC), rate, 1e-12) {
					t.Errorf("MAC phase not tight: %v vs %v", durations[0]*(1-tt.epsMAC), rate)
				}
			}
		})
	}
}

func TestRunBitTrueMABCWaterfall(t *testing.T) {
	const epsMAC, epsRA, epsRB = 0.2, 0.15, 0.1
	bound, durations := MABCComputeForwardBound(epsMAC, epsRA, epsRB)
	run := func(scale float64) BitTrueResult {
		t.Helper()
		res, err := RunBitTrueMABC(context.Background(), MABCBitTrueConfig{
			EpsMAC: epsMAC, EpsRA: epsRA, EpsRB: epsRB,
			Rate:        bound * scale,
			Durations:   durations,
			BlockLength: 3000,
			Trials:      30,
			Seed:        3,
			Workers:     4, // pinned so results do not depend on GOMAXPROCS
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	below := run(0.85)
	if below.SuccessProb < 0.95 {
		t.Errorf("85%% of bound: success %v (relay %d, terminal %d)",
			below.SuccessProb, below.RelayFailures, below.TerminalFailures)
	}
	successes := below.Trials - below.RelayFailures - below.TerminalFailures
	ci, err := stats.WilsonInterval(successes, below.Trials, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if below.SuccessProb < ci.Lo || below.SuccessProb > ci.Hi {
		t.Error("CI excludes the point estimate")
	}
	above := run(1.15)
	if above.SuccessProb > 0.1 {
		t.Errorf("115%% of bound: success %v, want ~0", above.SuccessProb)
	}
	// At 115% both the MAC and the broadcast phases are overloaded (the
	// split equalized them at 100%), so the relay fails first.
	if above.RelayFailures == 0 {
		t.Error("expected relay failures above the bound")
	}
}

func TestRunBitTrueMABCDerivesDurations(t *testing.T) {
	res, err := RunBitTrueMABC(context.Background(), MABCBitTrueConfig{
		EpsMAC: 0.1, EpsRA: 0.1, EpsRB: 0.1,
		Rate:        0.2, // well inside the 0.45 bound
		BlockLength: 2000,
		Trials:      15,
		Seed:        5,
		Workers:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Durations) != 2 {
		t.Fatalf("durations = %v", res.Durations)
	}
	if res.SuccessProb < 0.9 {
		t.Errorf("success %v for comfortable rate", res.SuccessProb)
	}
}

func TestRunBitTrueMABCValidation(t *testing.T) {
	good := MABCBitTrueConfig{
		EpsMAC: 0.1, EpsRA: 0.1, EpsRB: 0.1,
		Rate: 0.2, BlockLength: 500, Trials: 3, Seed: 1,
	}
	t.Run("bad eps", func(t *testing.T) {
		cfg := good
		cfg.EpsMAC = -0.5
		if _, err := RunBitTrueMABC(context.Background(), cfg); err == nil {
			t.Error("want error")
		}
	})
	t.Run("no block", func(t *testing.T) {
		cfg := good
		cfg.BlockLength = 0
		if _, err := RunBitTrueMABC(context.Background(), cfg); err == nil {
			t.Error("want error")
		}
	})
	t.Run("no trials", func(t *testing.T) {
		cfg := good
		cfg.Trials = 0
		if _, err := RunBitTrueMABC(context.Background(), cfg); !errors.Is(err, ErrInvalidTrials) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("zero rate", func(t *testing.T) {
		cfg := good
		cfg.Rate = 0
		if _, err := RunBitTrueMABC(context.Background(), cfg); err == nil {
			t.Error("want error")
		}
	})
	t.Run("bad durations", func(t *testing.T) {
		cfg := good
		cfg.Durations = []float64{1}
		if _, err := RunBitTrueMABC(context.Background(), cfg); err == nil {
			t.Error("want error")
		}
	})
	t.Run("rate too small for block", func(t *testing.T) {
		cfg := good
		cfg.Rate = 1e-9
		if _, err := RunBitTrueMABC(context.Background(), cfg); err == nil {
			t.Error("want error for zero-length message")
		}
	})
}

func TestBitTrueMABCSharedGeneratorLinearity(t *testing.T) {
	// The compute-and-forward trick rests on Encode(wa) xor Encode(wb) ==
	// Encode(wa xor wb): the relay's observations are parities of the XOR
	// message, which is what lets runBlock decide the relay decode by rank
	// (TestBitTrueRankDecodeMatchesFullDecode rebuilds those parities and
	// solves them in full). Exercised end-to-end with a deterministic seed
	// and a rate just below the bound.
	bound, durations := MABCComputeForwardBound(0.3, 0.2, 0.25)
	res, err := RunBitTrueMABC(context.Background(), MABCBitTrueConfig{
		EpsMAC: 0.3, EpsRA: 0.2, EpsRB: 0.25,
		Rate:        bound * 0.8,
		Durations:   durations,
		BlockLength: 2500,
		Trials:      20,
		Seed:        11,
		Workers:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SuccessProb < 0.9 {
		t.Errorf("success %v below expectation at 80%% of bound", res.SuccessProb)
	}
}
