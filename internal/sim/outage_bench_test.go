package sim

import (
	"context"
	"testing"

	"bicoop/internal/protocols"
	"bicoop/internal/xmath"
)

func benchOutageConfig() OutageConfig {
	return OutageConfig{
		Mean:      fig4Mean(),
		P:         xmath.FromDB(10),
		Protocols: []protocols.Protocol{protocols.MABC, protocols.TDBC, protocols.HBC},
		Target:    protocols.RatePair{Ra: 0.5, Rb: 0.5},
		Trials:    1,
		Seed:      1,
		Workers:   1,
	}
}

// TestOutageTrialZeroAllocs is the allocation-regression gate for the
// Monte Carlo per-block path: one fading draw plus a sum-rate LP and a
// feasibility probe per protocol must not allocate in steady state.
func TestOutageTrialZeroAllocs(t *testing.T) {
	w, err := newOutageWorker(benchOutageConfig(), benchOutageConfig().Seed)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the evaluator workspaces.
	for i := 0; i < 3; i++ {
		if err := w.runTrial(); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := w.runTrial(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("outage trial allocates %.1f/op, want 0", n)
	}
}

// TestOutageWorkerMatchesRunOutage cross-checks that the sharded run is the
// deterministic sum of its per-worker trials.
func TestOutageWorkerMatchesRunOutage(t *testing.T) {
	cfg := benchOutageConfig()
	cfg.Trials = 50
	res, err := RunOutage(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := newOutageWorker(cfg, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Trials; i++ {
		if err := w.runTrial(); err != nil {
			t.Fatal(err)
		}
	}
	for pi, proto := range cfg.Protocols {
		want := w.sum[pi] / float64(w.trials)
		got := res.ByProtocol[proto].MeanOptSumRate
		if !xmath.ApproxEqual(got, want, 1e-12) {
			t.Errorf("%v: RunOutage mean %g vs worker replay %g", proto, got, want)
		}
	}
}

// BenchmarkOutageTrial measures one fading block across three protocols
// (the steady-state Monte Carlo kernel, excluding worker setup).
func BenchmarkOutageTrial(b *testing.B) {
	w, err := newOutageWorker(benchOutageConfig(), benchOutageConfig().Seed)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.runTrial(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.runTrial(); err != nil {
			b.Fatal(err)
		}
	}
}
