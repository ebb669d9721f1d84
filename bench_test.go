package bicoop_test

// Benchmark harness: one benchmark per reproduced figure/claim (each drives
// the same experiment registry the CLI uses, in quick mode so a -bench run
// finishes in minutes), plus micro-benchmarks for the load-bearing
// primitives (LP solve, region construction, Blahut-Arimoto, GF(2) solve,
// fading draws, bit-true blocks).

import (
	"context"
	"io"
	"math/rand"
	"testing"

	"bicoop"
	"bicoop/internal/cache"
	"bicoop/internal/channel"
	"bicoop/internal/dmc"
	"bicoop/internal/experiments"
	"bicoop/internal/gf2"
	"bicoop/internal/protocols"
	"bicoop/internal/sim"
	"bicoop/internal/simplex"
	"bicoop/internal/xmath"
)

// benchExperiment runs a registry experiment in quick mode.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(context.Background(), id, experiments.Config{Quick: true, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper artifact (see DESIGN.md experiment index). ---

// BenchmarkFig3 regenerates Fig 3: sum rates vs relay placement.
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4LowSNR regenerates Fig 4 (top): regions at P = 0 dB.
func BenchmarkFig4LowSNR(b *testing.B) { benchExperiment(b, "fig4a") }

// BenchmarkFig4HighSNR regenerates Fig 4 (bottom): regions at P = 10 dB.
func BenchmarkFig4HighSNR(b *testing.B) { benchExperiment(b, "fig4b") }

// BenchmarkSNRCrossover sweeps the MABC/TDBC crossover claim.
func BenchmarkSNRCrossover(b *testing.B) { benchExperiment(b, "crossover") }

// BenchmarkClaimHBCOutside verifies the HBC-beyond-both-outer-bounds claim.
func BenchmarkClaimHBCOutside(b *testing.B) { benchExperiment(b, "hbc-escape") }

// BenchmarkClaimHBCStrict measures the strict HBC sum-rate advantage point.
func BenchmarkClaimHBCStrict(b *testing.B) {
	s, err := bicoop.RelayPlacement{Pos: 0.31, Exponent: 3}.Scenario(15)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		hbc, err := bicoop.OptimalSumRate(bicoop.HBC, bicoop.Inner, s)
		if err != nil {
			b.Fatal(err)
		}
		mabc, err := bicoop.OptimalSumRate(bicoop.MABC, bicoop.Inner, s)
		if err != nil {
			b.Fatal(err)
		}
		tdbc, err := bicoop.OptimalSumRate(bicoop.TDBC, bicoop.Inner, s)
		if err != nil {
			b.Fatal(err)
		}
		if hbc.Sum <= mabc.Sum || hbc.Sum <= tdbc.Sum {
			b.Fatal("strict HBC advantage lost")
		}
	}
}

// BenchmarkMABCTightness verifies Theorem 2's inner = outer on random draws.
func BenchmarkMABCTightness(b *testing.B) { benchExperiment(b, "mabc-tight") }

// BenchmarkDeltaAblation measures the optimal-vs-equal-durations ablation.
func BenchmarkDeltaAblation(b *testing.B) { benchExperiment(b, "delta-ablation") }

// BenchmarkPathLossAblation sweeps Fig 3 across path-loss exponents.
func BenchmarkPathLossAblation(b *testing.B) { benchExperiment(b, "pathloss") }

// BenchmarkFadingOutage runs the Rayleigh fading Monte Carlo.
func BenchmarkFadingOutage(b *testing.B) { benchExperiment(b, "fading") }

// BenchmarkBitsimTDBC runs the bit-true waterfall experiment end to end
// (the kernel-level bit-true benchmarks live in internal/sim as
// BenchmarkBitTrueTDBC*).
func BenchmarkBitsimTDBC(b *testing.B) { benchExperiment(b, "bitsim") }

// BenchmarkDMCBounds evaluates the theorems on the all-BSC network.
func BenchmarkDMCBounds(b *testing.B) { benchExperiment(b, "dmc") }

// BenchmarkBlahutArimoto measures quantized-AWGN capacity convergence.
func BenchmarkBlahutArimoto(b *testing.B) { benchExperiment(b, "blahut") }

// BenchmarkAllExperimentsRendered runs the registry end to end including
// ASCII rendering — the full `bcc all -quick` path.
func BenchmarkAllExperimentsRendered(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, id := range bicoop.Experiments() {
			if err := bicoop.RunExperiment(context.Background(), id, true, 1, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Micro-benchmarks for the primitives. ---

func fig4Scenario(pdb float64) protocols.Scenario {
	return protocols.NewScenarioDB(pdb, -7, 0, 5)
}

// BenchmarkSumRateLP measures one HBC sum-rate LP (compile + solve).
func BenchmarkSumRateLP(b *testing.B) {
	s := fig4Scenario(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := protocols.OptimalSumRate(protocols.HBC, protocols.BoundInner, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegionBuild measures a full 181-angle region construction.
func BenchmarkRegionBuild(b *testing.B) {
	spec, err := protocols.CompileGaussian(protocols.TDBC, protocols.BoundOuter, fig4Scenario(10))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Region(protocols.RegionOptions{Angles: 181}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeasibility measures one rate-pair feasibility LP.
func BenchmarkFeasibility(b *testing.B) {
	spec, err := protocols.CompileGaussian(protocols.HBC, protocols.BoundInner, fig4Scenario(10))
	if err != nil {
		b.Fatal(err)
	}
	pt := protocols.RatePair{Ra: 1.0, Rb: 1.0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Feasible(pt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimplexSolve measures the raw LP solver on the TDBC-shaped LP.
func BenchmarkSimplexSolve(b *testing.B) {
	p := simplex.Problem{
		C: []float64{1, 1, 0, 0, 0},
		AUb: [][]float64{
			{1, 0, -1.14, 0, 0},
			{1, 0, -0.26, 0, -2.05},
			{0, 1, 0, -2.05, 0},
			{0, 1, 0, -0.26, -1.0},
			{1, 1, -1.0, -2.05, 0},
		},
		BUb: []float64{0, 0, 0, 0, 0},
		AEq: [][]float64{{0, 0, 1, 1, 1}},
		BEq: []float64{1},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlahutIteration measures BA capacity of a 2x64 quantized channel.
func BenchmarkBlahutIteration(b *testing.B) {
	ch, err := dmc.QuantizeAWGN(1.0, 64, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ch.Capacity(1e-9, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGF2Solve measures solving a 256x256 GF(2) system.
func BenchmarkGF2Solve(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var m gf2.Matrix
	for {
		m = gf2.RandomMatrix(256, 256, r)
		if m.Rank() == 256 {
			break
		}
	}
	x := gf2.RandomVector(256, r)
	rhs, err := m.MulVec(x)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Solve(rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFadingDraw measures quasi-static gain sampling.
func BenchmarkFadingDraw(b *testing.B) {
	f, err := channel.NewFading(channel.GainsFromDB(-7, 0, 5), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = f.Draw()
	}
}

// BenchmarkBitTrueBlock measures one bit-true TDBC block (1000 uses).
func BenchmarkBitTrueBlock(b *testing.B) {
	cfg := sim.BitTrueConfig{
		Net:         sim.ErasureNetwork{EpsAR: 0.2, EpsBR: 0.1, EpsAB: 0.6},
		Rates:       protocols.RatePair{Ra: 0.2, Rb: 0.2},
		BlockLength: 1000,
		Trials:      1,
		Seed:        1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := sim.RunBitTrueTDBC(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOutageBlock measures one fading block across three protocols.
func BenchmarkOutageBlock(b *testing.B) {
	cfg := sim.OutageConfig{
		Mean:      channel.GainsFromDB(-7, 0, 5),
		P:         xmath.FromDB(10),
		Protocols: []protocols.Protocol{protocols.MABC, protocols.TDBC, protocols.HBC},
		Target:    protocols.RatePair{Ra: 0.5, Rb: 0.5},
		Trials:    1,
		Workers:   1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := sim.RunOutage(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselines runs the AF / full-duplex baseline comparison sweep.
func BenchmarkBaselines(b *testing.B) { benchExperiment(b, "baselines") }

// BenchmarkBitsimMABC runs the compute-and-forward MABC waterfall
// experiment end to end (kernel-level counterpart: internal/sim's
// BenchmarkBitTrueMABC*).
func BenchmarkBitsimMABC(b *testing.B) { benchExperiment(b, "bitsim-mabc") }

// BenchmarkBER runs the symbol-level BER validation sweep.
func BenchmarkBER(b *testing.B) { benchExperiment(b, "ber") }

// --- Engine batch vs legacy one-shot facade. ---

// batchScenarios builds the 1000-point power × gain grid both batch
// benchmarks evaluate, mirroring a Fig 3 style bulk query — the same grid
// shape the correctness tests pin (see grid in engine_test.go).
func batchScenarios() []bicoop.Scenario { return grid(1000) }

// BenchmarkEngineSumRateBatch measures Engine.SumRateBatch over a
// 1k-scenario grid: one pooled evaluator across the batch, one shared
// durations backing array, no per-call pool traffic.
func BenchmarkEngineSumRateBatch(b *testing.B) {
	eng := bicoop.NewEngine()
	scenarios := batchScenarios()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.SumRateBatch(ctx, bicoop.HBC, bicoop.Inner, scenarios); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSweep measures Engine.SweepAll over a Fig 3 style
// placement grid (37 positions × 5 protocols at 15 dB) — the sharded
// streaming grid path with cold-solved Naive4/HBC LPs.
func BenchmarkEngineSweep(b *testing.B) {
	eng := bicoop.NewEngine()
	spec := bicoop.SweepSpec{PowersDB: []float64{15}}
	for i := 0; i < 37; i++ {
		spec.Placements = append(spec.Placements,
			bicoop.RelayPlacement{Pos: 0.05 + 0.9*float64(i)/36, Exponent: 3})
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := eng.SweepAll(ctx, spec)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != spec.Size() {
			b.Fatal("short sweep")
		}
	}
}

// BenchmarkRegionParallel measures Engine.RegionBatch over the six Fig 4
// curves at quick resolution — the region workload on the sharded core
// (flattened angle axis, cold-solved HBC LPs, streamed hulls).
// On a single-core container it pins the sharding overhead against the old
// serial support sweep; on multi-core hosts the angle axis scales like the
// grid axes.
func BenchmarkRegionParallel(b *testing.B) {
	eng := bicoop.NewEngine()
	spec := bicoop.RegionBatchSpec{
		Scenarios: []bicoop.Scenario{{PowerDB: 10, GabDB: -7, GarDB: 0, GbrDB: 5}},
		Curves: []bicoop.RegionCurve{
			{Protocol: bicoop.DT, Bound: bicoop.Inner},
			{Protocol: bicoop.MABC, Bound: bicoop.Inner},
			{Protocol: bicoop.TDBC, Bound: bicoop.Inner},
			{Protocol: bicoop.TDBC, Bound: bicoop.Outer},
			{Protocol: bicoop.MABC, Bound: bicoop.Outer},
			{Protocol: bicoop.HBC, Bound: bicoop.Inner},
		},
		Angles: 61,
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curves := 0
		err := eng.RegionBatch(ctx, spec, func(bicoop.RegionBatchPoint) error {
			curves++
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if curves != spec.Size() {
			b.Fatal("short region batch")
		}
	}
}

// BenchmarkCampaign measures Engine.SimulateBatch over a fading seed
// family — the outer sharded sweep that pipelines whole Monte Carlo runs
// (deterministic per-spec seeds, one-goroutine inner default).
func BenchmarkCampaign(b *testing.B) {
	eng := bicoop.NewEngine()
	scen := bicoop.Scenario{PowerDB: 5, GabDB: -7, GarDB: 0, GbrDB: 5}
	var specs []bicoop.SimSpec
	for i := 0; i < 4; i++ {
		specs = append(specs, bicoop.SimSpec{
			Fading: &bicoop.FadingSpec{Scenario: scen, Target: bicoop.RatePoint{Ra: 0.5, Rb: 0.5}},
			Trials: 100,
			Seed:   int64(i),
		})
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.SimulateBatch(ctx, bicoop.CampaignSpec{Specs: specs}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != len(specs) {
			b.Fatal("short campaign")
		}
	}
}

// --- Result cache (internal/cache threaded through the engine). ---

// BenchmarkSumRateBatchCachedHit measures SumRateBatch when every point is
// served from the result cache: the store is prefilled by one batch before
// the timer starts. The committed ledger gates this against
// BenchmarkSumRateBatchCachedMiss via `benchjson compare -min-speedup` —
// the hit path must stay much cheaper than re-solving.
func BenchmarkSumRateBatchCachedHit(b *testing.B) {
	st := cache.NewStore(1 << 13)
	eng := bicoop.NewEngine(bicoop.WithCacheStore(st))
	scenarios := batchScenarios()
	ctx := context.Background()
	if _, err := eng.SumRateBatch(ctx, bicoop.HBC, bicoop.Inner, scenarios); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.SumRateBatch(ctx, bicoop.HBC, bicoop.Inner, scenarios); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSumRateBatchCachedMiss measures the same batch with the store
// reset every iteration, so every point misses and solves cold — the
// denominator of the cache-gate speedup check.
func BenchmarkSumRateBatchCachedMiss(b *testing.B) {
	st := cache.NewStore(1 << 13)
	eng := bicoop.NewEngine(bicoop.WithCacheStore(st))
	scenarios := batchScenarios()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Reset()
		if _, err := eng.SumRateBatch(ctx, bicoop.HBC, bicoop.Inner, scenarios); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepCached measures the Fig 3 style placement sweep (the
// BenchmarkEngineSweep workload) fully served from a warm result cache.
func BenchmarkSweepCached(b *testing.B) {
	eng := bicoop.NewEngine(bicoop.WithCache(1 << 13))
	spec := bicoop.SweepSpec{PowersDB: []float64{15}}
	for i := 0; i < 37; i++ {
		spec.Placements = append(spec.Placements,
			bicoop.RelayPlacement{Pos: 0.05 + 0.9*float64(i)/36, Exponent: 3})
	}
	ctx := context.Background()
	if _, err := eng.SweepAll(ctx, spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := eng.SweepAll(ctx, spec)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != spec.Size() {
			b.Fatal("short sweep")
		}
	}
}

// BenchmarkOneShotSumRateBatch evaluates the same 1k-scenario grid through
// the legacy one-shot facade — one OptimalSumRate call per scenario,
// results collected exactly as SumRateBatch returns them. This is the
// baseline Engine.SumRateBatch is measured against.
func BenchmarkOneShotSumRateBatch(b *testing.B) {
	scenarios := batchScenarios()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := make([]bicoop.SumRateResult, 0, len(scenarios))
		for _, s := range scenarios {
			res, err := bicoop.OptimalSumRate(bicoop.HBC, bicoop.Inner, s)
			if err != nil {
				b.Fatal(err)
			}
			out = append(out, res)
		}
		if len(out) != len(scenarios) {
			b.Fatal("short batch")
		}
	}
}
