package sim

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"bicoop/internal/channel"
	"bicoop/internal/protocols"
	"bicoop/internal/xmath"
)

func fig4Mean() channel.Gains {
	return channel.GainsFromDB(-7, 0, 5)
}

func TestRunOutageValidation(t *testing.T) {
	good := OutageConfig{
		Mean:      fig4Mean(),
		P:         1,
		Protocols: []protocols.Protocol{protocols.MABC},
		Trials:    10,
		Seed:      1,
	}
	t.Run("no trials", func(t *testing.T) {
		cfg := good
		cfg.Trials = 0
		if _, err := RunOutage(context.Background(), cfg); !errors.Is(err, ErrInvalidTrials) {
			t.Errorf("err = %v, want ErrInvalidTrials", err)
		}
	})
	t.Run("no protocols", func(t *testing.T) {
		cfg := good
		cfg.Protocols = nil
		if _, err := RunOutage(context.Background(), cfg); !errors.Is(err, ErrNoTargets) {
			t.Errorf("err = %v, want ErrNoTargets", err)
		}
	})
	t.Run("bad scenario", func(t *testing.T) {
		cfg := good
		cfg.P = 0
		if _, err := RunOutage(context.Background(), cfg); err == nil {
			t.Error("want error for zero power")
		}
	})
}

func TestRunOutageDeterministic(t *testing.T) {
	cfg := OutageConfig{
		Mean:      fig4Mean(),
		P:         xmath.FromDB(5),
		Protocols: []protocols.Protocol{protocols.MABC, protocols.TDBC},
		Target:    protocols.RatePair{Ra: 0.3, Rb: 0.3},
		Trials:    400,
		Seed:      99,
		Workers:   4,
	}
	r1, err := RunOutage(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunOutage(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range cfg.Protocols {
		if r1.ByProtocol[p] != r2.ByProtocol[p] {
			t.Errorf("%v: run not deterministic: %+v vs %+v", p, r1.ByProtocol[p], r2.ByProtocol[p])
		}
	}
}

func TestRunOutageStatisticalSanity(t *testing.T) {
	cfg := OutageConfig{
		Mean:      fig4Mean(),
		P:         xmath.FromDB(10),
		Protocols: []protocols.Protocol{protocols.MABC, protocols.TDBC, protocols.HBC},
		Target:    protocols.RatePair{Ra: 0.5, Rb: 0.5},
		Trials:    2000,
		Seed:      7,
	}
	res, err := RunOutage(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// HBC contains the other protocols, so its adaptive throughput is at
	// least theirs and its outage at most theirs on exactly the same fading
	// draws... the draws differ per protocol only if RNG consumption
	// differed; here all protocols share each block's draw, so comparison
	// is exact per block.
	hbc := res.ByProtocol[protocols.HBC]
	for _, p := range []protocols.Protocol{protocols.MABC, protocols.TDBC} {
		st := res.ByProtocol[p]
		if hbc.MeanOptSumRate < st.MeanOptSumRate-1e-9 {
			t.Errorf("HBC mean sum rate %v below %v's %v", hbc.MeanOptSumRate, p, st.MeanOptSumRate)
		}
		if hbc.OutageProb > st.OutageProb+1e-9 {
			t.Errorf("HBC outage %v above %v's %v", hbc.OutageProb, p, st.OutageProb)
		}
	}
	// The fading-averaged adaptive sum rate is within a plausible band of
	// the fixed-gain sum rate (Jensen effects are modest at these SNRs).
	fixed, err := protocols.OptimalSumRate(protocols.MABC, protocols.BoundInner,
		protocols.Scenario{P: cfg.P, G: cfg.Mean})
	if err != nil {
		t.Fatal(err)
	}
	mabc := res.ByProtocol[protocols.MABC]
	if mabc.MeanOptSumRate < 0.5*fixed.Sum || mabc.MeanOptSumRate > 1.5*fixed.Sum {
		t.Errorf("fading mean %v implausible vs fixed-gain %v", mabc.MeanOptSumRate, fixed.Sum)
	}
	// Outage probabilities are proper probabilities.
	for p, st := range res.ByProtocol {
		if st.OutageProb < 0 || st.OutageProb > 1 {
			t.Errorf("%v: outage %v out of range", p, st.OutageProb)
		}
		if st.Trials != cfg.Trials {
			t.Errorf("%v: trials %d, want %d", p, st.Trials, cfg.Trials)
		}
	}
}

func TestOutageMonotoneInTarget(t *testing.T) {
	base := OutageConfig{
		Mean:      fig4Mean(),
		P:         xmath.FromDB(5),
		Protocols: []protocols.Protocol{protocols.MABC},
		Trials:    1500,
		Seed:      13,
	}
	var prev float64
	for _, scale := range []float64{0.2, 0.5, 1.0, 1.6} {
		cfg := base
		cfg.Target = protocols.RatePair{Ra: 0.4 * scale, Rb: 0.4 * scale}
		res, err := RunOutage(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := res.ByProtocol[protocols.MABC].OutageProb
		if out < prev-1e-9 {
			t.Errorf("outage decreased with higher target: %v -> %v at scale %v", prev, out, scale)
		}
		prev = out
	}
}

func TestErasureNetworkValidate(t *testing.T) {
	tests := []struct {
		name string
		n    ErasureNetwork
		ok   bool
	}{
		{name: "good", n: ErasureNetwork{EpsAR: 0.2, EpsBR: 0.3, EpsAB: 0.7}, ok: true},
		{name: "edge values", n: ErasureNetwork{EpsAR: 0, EpsBR: 1, EpsAB: 0.5}, ok: true},
		{name: "negative", n: ErasureNetwork{EpsAR: -0.1}, ok: false},
		{name: "above one", n: ErasureNetwork{EpsAB: 1.5}, ok: false},
		{name: "nan", n: ErasureNetwork{EpsAR: math.NaN()}, ok: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.n.Validate()
			if tt.ok != (err == nil) {
				t.Errorf("Validate = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestBitTrueTDBCWaterfall(t *testing.T) {
	// The core bit-true validation: below the inner bound decoding succeeds
	// w.h.p., above the outer bound it fails w.h.p.
	net := ErasureNetwork{EpsAR: 0.2, EpsBR: 0.1, EpsAB: 0.6}
	li := net.LinkInfos()
	spec, err := protocols.Compile(protocols.TDBC, protocols.BoundInner, li)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := spec.MaxSumRate()
	if err != nil {
		t.Fatal(err)
	}

	run := func(scale float64) BitTrueResult {
		t.Helper()
		res, err := RunBitTrueTDBC(context.Background(), BitTrueConfig{
			Net:         net,
			Rates:       protocols.RatePair{Ra: opt.Rates.Ra * scale, Rb: opt.Rates.Rb * scale},
			Durations:   opt.Durations,
			BlockLength: 3000,
			Trials:      30,
			Seed:        5,
			Workers:     4, // pinned so results do not depend on GOMAXPROCS
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	below := run(0.85)
	if below.SuccessProb < 0.95 {
		t.Errorf("at 85%% of the bound: success %v, want near 1 (relay fails %d, terminal fails %d)",
			below.SuccessProb, below.RelayFailures, below.TerminalFailures)
	}
	above := run(1.15)
	if above.SuccessProb > 0.1 {
		t.Errorf("at 115%% of the bound: success %v, want near 0", above.SuccessProb)
	}
}

func TestBitTrueTDBCDerivesDurations(t *testing.T) {
	net := ErasureNetwork{EpsAR: 0.1, EpsBR: 0.1, EpsAB: 0.5}
	res, err := RunBitTrueTDBC(context.Background(), BitTrueConfig{
		Net:         net,
		Rates:       protocols.RatePair{Ra: 0.15, Rb: 0.15},
		BlockLength: 2000,
		Trials:      20,
		Seed:        11,
		Workers:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Durations) != 3 {
		t.Fatalf("derived durations = %v", res.Durations)
	}
	if !xmath.ApproxEqual(xmath.Sum(res.Durations), 1, 1e-6) {
		t.Errorf("durations %v do not sum to 1", res.Durations)
	}
	// Modest rates well inside the bound must decode reliably.
	if res.SuccessProb < 0.9 {
		t.Errorf("success %v, want >= 0.9", res.SuccessProb)
	}
}

func TestBitTrueTDBCInfeasibleRates(t *testing.T) {
	// Rates in [0,1] pass Validate; these lie outside the inner bound, whose
	// sum rate is below the 0.5 capacity of each relay link.
	net := ErasureNetwork{EpsAR: 0.5, EpsBR: 0.5, EpsAB: 0.9}
	_, err := RunBitTrueTDBC(context.Background(), BitTrueConfig{
		Net:         net,
		Rates:       protocols.RatePair{Ra: 0.9, Rb: 0.9},
		BlockLength: 500,
		Trials:      5,
		Seed:        1,
	})
	if !errors.Is(err, ErrInfeasibleRates) {
		t.Errorf("err = %v, want ErrInfeasibleRates", err)
	}
}

func TestBitTrueTDBCConfigValidation(t *testing.T) {
	net := ErasureNetwork{EpsAR: 0.1, EpsBR: 0.1, EpsAB: 0.5}
	good := BitTrueConfig{
		Net: net, Rates: protocols.RatePair{Ra: 0.1, Rb: 0.1},
		BlockLength: 500, Trials: 3, Seed: 1,
	}
	t.Run("bad net", func(t *testing.T) {
		cfg := good
		cfg.Net.EpsAR = 2
		if _, err := RunBitTrueTDBC(context.Background(), cfg); err == nil {
			t.Error("want error")
		}
	})
	t.Run("no block", func(t *testing.T) {
		cfg := good
		cfg.BlockLength = 0
		if _, err := RunBitTrueTDBC(context.Background(), cfg); err == nil {
			t.Error("want error")
		}
	})
	t.Run("no trials", func(t *testing.T) {
		cfg := good
		cfg.Trials = 0
		if _, err := RunBitTrueTDBC(context.Background(), cfg); !errors.Is(err, ErrInvalidTrials) {
			t.Errorf("err = %v, want ErrInvalidTrials", err)
		}
	})
	t.Run("negative rates", func(t *testing.T) {
		cfg := good
		cfg.Rates = protocols.RatePair{Ra: -0.1, Rb: 0.1}
		if _, err := RunBitTrueTDBC(context.Background(), cfg); err == nil {
			t.Error("want error")
		}
	})
	t.Run("rate above one", func(t *testing.T) {
		cfg := good
		cfg.Rates = protocols.RatePair{Ra: 2, Rb: 2}
		if _, err := RunBitTrueTDBC(context.Background(), cfg); !errors.Is(err, ErrInvalidRates) {
			t.Errorf("err = %v, want ErrInvalidRates", err)
		}
	})
	t.Run("wrong duration count", func(t *testing.T) {
		cfg := good
		cfg.Durations = []float64{0.5, 0.5}
		if _, err := RunBitTrueTDBC(context.Background(), cfg); err == nil {
			t.Error("want error")
		}
	})
	t.Run("zero messages", func(t *testing.T) {
		cfg := good
		cfg.Rates = protocols.RatePair{}
		cfg.Durations = []float64{0.3, 0.3, 0.4}
		if _, err := RunBitTrueTDBC(context.Background(), cfg); err == nil {
			t.Error("want error for zero-length messages")
		}
	})
}

// TestBitTruePinnedDurationsRejected pins that both simulators turn a bad
// pinned phase split into an error instead of panicking while sizing the
// phases (or silently running with n1+n2 > n).
func TestBitTruePinnedDurationsRejected(t *testing.T) {
	tdbc := BitTrueConfig{
		Net:         ErasureNetwork{EpsAR: 0.2, EpsBR: 0.1, EpsAB: 0.6},
		Rates:       protocols.RatePair{Ra: 0.1, Rb: 0.1},
		BlockLength: 300, Trials: 2, Seed: 1,
	}
	for _, d := range [][]float64{{0.5, 0.5}, {-0.5, 0.5, 1}, {0.7, 0.7, 0}, {math.NaN(), 0.5, 0.5}, {0.3, 0.3, math.Inf(1)}} {
		cfg := tdbc
		cfg.Durations = d
		if _, err := RunBitTrueTDBC(context.Background(), cfg); err == nil {
			t.Errorf("TDBC durations %v: want error", d)
		}
	}
	mabc := MABCBitTrueConfig{
		EpsMAC: 0.2, EpsRA: 0.15, EpsRB: 0.1,
		Rate: 0.1, BlockLength: 300, Trials: 2, Seed: 1,
	}
	for _, d := range [][]float64{{1}, {1.5, -0.5}, {0.45, 0.45}, {math.NaN(), 1}} {
		cfg := mabc
		cfg.Durations = d
		if _, err := RunBitTrueMABC(context.Background(), cfg); err == nil {
			t.Errorf("MABC durations %v: want error", d)
		}
	}
}

// TestTDBCPhasesFillBlock pins that the three TDBC phases always fill
// exactly the block: n1+n2+n3 == n and no phase is negative, for random
// pinned durations that pass CheckDurations — half of them on the
// half-channel-use grid, where phases 1 and 2 can both round up — at block
// lengths across the admitted range. (0.5, 0.5, 0) at n = 301 once gave
// n1 = n2 = 151, 302 channel uses.
func TestTDBCPhasesFillBlock(t *testing.T) {
	cfg := BitTrueConfig{
		Net:   ErasureNetwork{EpsAR: 0.2, EpsBR: 0.1, EpsAB: 0.6},
		Rates: protocols.RatePair{Ra: 1, Rb: 1}, Trials: 1,
	}
	check := func(n int, d []float64) {
		t.Helper()
		cfg.BlockLength, cfg.Durations = n, d
		p, _, err := deriveTDBCParams(cfg)
		if err != nil {
			t.Fatalf("n=%d durations %v: %v", n, d, err)
		}
		if p.n1 < 0 || p.n2 < 0 || p.n3 < 0 || p.n1+p.n2+p.n3 != n {
			t.Fatalf("n=%d durations %v: phases %d+%d+%d, want a split of %d", n, d, p.n1, p.n2, p.n3, n)
		}
	}
	check(301, []float64{0.5, 0.5, 0})
	r := rand.New(rand.NewSource(32))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(maxBlockLength)
		a, b := r.Float64(), r.Float64()
		if trial%2 == 0 {
			// Odd multiples of half a channel use round away from zero.
			a = float64(2*r.Intn(n)+1) / float64(2*n)
			b = float64(2*r.Intn(n)+1) / float64(2*n)
		}
		a, b = min(a, b), max(a, b)
		d := []float64{a, b - a, 1 - b}
		if CheckDurations("TDBC", d, 3) != nil {
			t.Fatalf("durations %v do not pass CheckDurations", d)
		}
		check(n, d)
	}
}

func TestBitTrueTDBCAsymmetricRates(t *testing.T) {
	// ka != kb exercises the zero-padding path of the XOR group.
	net := ErasureNetwork{EpsAR: 0.1, EpsBR: 0.05, EpsAB: 0.5}
	res, err := RunBitTrueTDBC(context.Background(), BitTrueConfig{
		Net:         net,
		Rates:       protocols.RatePair{Ra: 0.2, Rb: 0.05},
		BlockLength: 2000,
		Trials:      20,
		Seed:        21,
		Workers:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SuccessProb < 0.9 {
		t.Errorf("asymmetric-rate success %v, want >= 0.9", res.SuccessProb)
	}
}
