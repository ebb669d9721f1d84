package sim

import (
	"context"
	"math"
	"testing"

	"bicoop/internal/protocols"
)

// The benchmark operating points are fixed (pinned durations, no LP) so the
// ledgers in BENCH_baseline.json / BENCH_after.json compare equal workloads:
// same block length, same trial count, same rates.

func benchTDBCConfig(workers int) BitTrueConfig {
	return BitTrueConfig{
		Net:         ErasureNetwork{EpsAR: 0.2, EpsBR: 0.1, EpsAB: 0.6},
		Rates:       protocols.RatePair{Ra: 0.2, Rb: 0.2},
		Durations:   []float64{0.35, 0.35, 0.3},
		BlockLength: 2000,
		Trials:      64,
		Seed:        1,
		Workers:     workers,
	}
}

func benchMABCConfig(workers int) MABCBitTrueConfig {
	return MABCBitTrueConfig{
		EpsMAC: 0.2, EpsRA: 0.15, EpsRB: 0.1,
		Rate:        0.3,
		Durations:   []float64{0.5, 0.5},
		BlockLength: 2000,
		Trials:      64,
		Seed:        1,
		Workers:     workers,
	}
}

// BenchmarkBitTrueTDBC measures a full single-threaded bit-true TDBC run
// (64 blocks of 2000 channel uses) — the ledger's headline bit-true number.
func BenchmarkBitTrueTDBC(b *testing.B) {
	cfg := benchTDBCConfig(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunBitTrueTDBC(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBitTrueTDBCParallel is the same workload sharded over GOMAXPROCS
// workers; the ratio to BenchmarkBitTrueTDBC is the pool's scaling.
func BenchmarkBitTrueTDBCParallel(b *testing.B) {
	cfg := benchTDBCConfig(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunBitTrueTDBC(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBitTrueMABC measures a full single-threaded compute-and-forward
// MABC run (64 blocks of 2000 uses).
func BenchmarkBitTrueMABC(b *testing.B) {
	cfg := benchMABCConfig(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunBitTrueMABC(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBitTrueMABCParallel shards the MABC workload over GOMAXPROCS.
func BenchmarkBitTrueMABCParallel(b *testing.B) {
	cfg := benchMABCConfig(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunBitTrueMABC(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTDBCWorker builds one worker at the benchmark operating point.
func benchTDBCWorker(tb testing.TB, cfg BitTrueConfig) *tdbcWorker {
	tb.Helper()
	p, _, err := deriveTDBCParams(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return newTDBCWorker(cfg.Net, p, cfg.Seed)
}

// benchMABCWorkerAt builds one worker at the benchmark operating point.
func benchMABCWorkerAt(tb testing.TB, cfg MABCBitTrueConfig) *mabcWorker {
	tb.Helper()
	n := cfg.BlockLength
	n1 := int(math.Round(cfg.Durations[0] * float64(n)))
	return newMABCWorker(cfg, messageBits(cfg.Rate, n), n1, n-n1, cfg.Seed)
}

// BenchmarkBitTrueTDBCBlock measures the per-block kernel: three in-place
// code redraws, erasures, and three rank decisions (FullRank) — five when
// the relay rows both terminals share fall short.
// Steady state must report 0 allocs/op (see TestBitTrueTDBCBlockZeroAllocs).
func BenchmarkBitTrueTDBCBlock(b *testing.B) {
	w := benchTDBCWorker(b, benchTDBCConfig(1))
	w.record(w.runBlock())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.record(w.runBlock())
	}
}

// BenchmarkBitTrueMABCBlock measures the per-block compute-and-forward
// kernel (two code redraws, erasures, two rank decisions — four when the
// broadcast rows both terminals share fall short).
func BenchmarkBitTrueMABCBlock(b *testing.B) {
	w := benchMABCWorkerAt(b, benchMABCConfig(1))
	w.record(w.runBlock())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.record(w.runBlock())
	}
}

// benchTDBCNearBoundConfig is the TDBC benchmark point with rates raised
// near its bound: the relay rows both terminals share (about 0.72·n3 = 432)
// fall short of kr = 520, so each block's shared decision is settled by its
// row count and the terminals decode with their overheard rows.
func benchTDBCNearBoundConfig() BitTrueConfig {
	cfg := benchTDBCConfig(1)
	cfg.Rates = protocols.RatePair{Ra: 0.26, Rb: 0.26}
	return cfg
}

// benchMABCNearBoundConfig is the MABC benchmark point at 0.975 of its
// bound (0.4 at equal durations): about 0.765·n2 = 765 shared broadcast
// rows against k = 780, so the shared rows span on about one relay-decoded
// block in ten, while the relay decodes on over nine blocks in ten.
func benchMABCNearBoundConfig() MABCBitTrueConfig {
	cfg := benchMABCConfig(1)
	cfg.Rate = 0.39
	return cfg
}

// BenchmarkBitTrueTDBCBlockNearBound measures the per-block kernel where the
// shared relay rows fall short and the terminals take the per-terminal
// fallback, which must cost no more than deciding them on their own.
func BenchmarkBitTrueTDBCBlockNearBound(b *testing.B) {
	w := benchTDBCWorker(b, benchTDBCNearBoundConfig())
	w.record(w.runBlock())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.record(w.runBlock())
	}
}

// BenchmarkBitTrueMABCBlockNearBound is the MABC counterpart.
func BenchmarkBitTrueMABCBlockNearBound(b *testing.B) {
	w := benchMABCWorkerAt(b, benchMABCNearBoundConfig())
	w.record(w.runBlock())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.record(w.runBlock())
	}
}

// TestBitTrueTDBCBlockZeroAllocs is the allocation-regression gate for the
// bit-true per-block kernel: once a worker is built, a block — including
// decode failures — must not allocate. Every buffer is pre-sized to its
// maximum (phase lengths bound the accumulators, Solver.Reserve bounds the
// tableau), so this is strict equality, not an average.
func TestBitTrueTDBCBlockZeroAllocs(t *testing.T) {
	w := benchTDBCWorker(t, benchTDBCConfig(1))
	for i := 0; i < 3; i++ {
		w.record(w.runBlock())
	}
	if n := testing.AllocsPerRun(200, func() { w.record(w.runBlock()) }); n != 0 {
		t.Errorf("TDBC block allocates %.2f/op, want 0", n)
	}
	// Also at an operating point above the bound, where decodes fail and the
	// error paths run.
	cfg := benchTDBCConfig(1)
	cfg.Rates = protocols.RatePair{Ra: 0.4, Rb: 0.4}
	wf := benchTDBCWorker(t, cfg)
	for i := 0; i < 3; i++ {
		wf.record(wf.runBlock())
	}
	if n := testing.AllocsPerRun(200, func() { wf.record(wf.runBlock()) }); n != 0 {
		t.Errorf("failing TDBC block allocates %.2f/op, want 0", n)
	}
	if wf.successes > 0 {
		t.Errorf("expected only failures far above the bound, got %d successes", wf.successes)
	}
}

// TestBitTrueMABCBlockZeroAllocs gates the MABC kernel the same way.
func TestBitTrueMABCBlockZeroAllocs(t *testing.T) {
	w := benchMABCWorkerAt(t, benchMABCConfig(1))
	for i := 0; i < 3; i++ {
		w.record(w.runBlock())
	}
	if n := testing.AllocsPerRun(200, func() { w.record(w.runBlock()) }); n != 0 {
		t.Errorf("MABC block allocates %.2f/op, want 0", n)
	}
	cfg := benchMABCConfig(1)
	cfg.Rate = 0.55 // above both phase constraints
	wf := benchMABCWorkerAt(t, cfg)
	for i := 0; i < 3; i++ {
		wf.record(wf.runBlock())
	}
	if n := testing.AllocsPerRun(200, func() { wf.record(wf.runBlock()) }); n != 0 {
		t.Errorf("failing MABC block allocates %.2f/op, want 0", n)
	}
}

// TestBitTrueTDBCShardingDeterministic pins that a run is reproducible for
// a fixed (Seed, Trials, Workers) triple and that worker 0 of a sharded run
// replays the sequential engine's stream (the workerSeedStride contract).
func TestBitTrueTDBCShardingDeterministic(t *testing.T) {
	cfg := benchTDBCConfig(4)
	cfg.Trials = 40
	r1, err := RunBitTrueTDBC(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunBitTrueTDBC(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.SuccessProb != r2.SuccessProb || r1.RelayFailures != r2.RelayFailures ||
		r1.TerminalFailures != r2.TerminalFailures {
		t.Errorf("sharded run not deterministic: %+v vs %+v", r1, r2)
	}
}

// TestBitTrueTDBCShardedMatchesSequential pins the sharded estimator against
// the sequential (Workers=1) one: same config, different worker counts must
// agree within Monte Carlo tolerance at a mid-waterfall operating point,
// where disagreement would actually show.
func TestBitTrueTDBCShardedMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo comparison")
	}
	net := ErasureNetwork{EpsAR: 0.2, EpsBR: 0.1, EpsAB: 0.6}
	cfg := BitTrueConfig{
		Net: net,
		// Just below the pinned-duration operating point: success is high
		// but not saturated, so the comparison is informative.
		Rates:       protocols.RatePair{Ra: 0.26, Rb: 0.26},
		Durations:   []float64{0.35, 0.35, 0.3},
		BlockLength: 700,
		Trials:      600,
		Seed:        77,
		Workers:     1,
	}
	seq, err := RunBitTrueTDBC(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := RunBitTrueTDBC(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two independent estimators of the same probability: allow 4 combined
	// standard errors (fixed seeds make this deterministic; the margin
	// documents the expected agreement, not flakiness).
	p := (seq.SuccessProb + par.SuccessProb) / 2
	se := math.Sqrt(2 * p * (1 - p) / float64(cfg.Trials))
	if diff := math.Abs(seq.SuccessProb - par.SuccessProb); diff > 4*se+1e-9 {
		t.Errorf("sequential %.4f vs sharded %.4f: |diff| %.4f exceeds 4·SE %.4f",
			seq.SuccessProb, par.SuccessProb, diff, 4*se)
	}
	if seq.SuccessProb <= 0.5 || seq.SuccessProb >= 0.999 {
		t.Errorf("operating point drifted out of the informative band: %.4f", seq.SuccessProb)
	}
}

// TestBitTrueMABCShardedMatchesSequential is the MABC counterpart.
func TestBitTrueMABCShardedMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo comparison")
	}
	bound, durations := MABCComputeForwardBound(0.2, 0.15, 0.1)
	cfg := MABCBitTrueConfig{
		EpsMAC: 0.2, EpsRA: 0.15, EpsRB: 0.1,
		Rate:        bound * 0.93,
		Durations:   durations,
		BlockLength: 700,
		Trials:      600,
		Seed:        78,
		Workers:     1,
	}
	seq, err := RunBitTrueMABC(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := RunBitTrueMABC(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := (seq.SuccessProb + par.SuccessProb) / 2
	se := math.Sqrt(2 * p * (1 - p) / float64(cfg.Trials))
	if diff := math.Abs(seq.SuccessProb - par.SuccessProb); diff > 4*se+1e-9 {
		t.Errorf("sequential %.4f vs sharded %.4f: |diff| %.4f exceeds 4·SE %.4f",
			seq.SuccessProb, par.SuccessProb, diff, 4*se)
	}
	if seq.SuccessProb <= 0.5 || seq.SuccessProb >= 0.999 {
		t.Errorf("operating point drifted out of the informative band: %.4f", seq.SuccessProb)
	}
}

// TestBitTrueWorkerCountIndependence checks the merge arithmetic: total
// trials across any worker split must equal the configured count, with no
// block double-counted or dropped (success+failures == trials).
func TestBitTrueWorkerCountIndependence(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16, 100} {
		cfg := benchTDBCConfig(workers)
		cfg.Trials = 37
		cfg.BlockLength = 400
		res, err := RunBitTrueTDBC(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		succ := int(res.SuccessProb*float64(cfg.Trials) + 0.5)
		if got := succ + res.RelayFailures + res.TerminalFailures; got != cfg.Trials {
			t.Errorf("workers=%d: %d successes + %d relay + %d terminal != %d trials",
				workers, succ, res.RelayFailures, res.TerminalFailures, cfg.Trials)
		}
	}
}
