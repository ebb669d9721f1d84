package bicoop_test

// Benchmark harness: the root package's half of the performance ledger
// (scripts/bench.sh selects every benchmark here; TestBenchLedgerCoverage
// keeps it that way). Three figure-level experiments run through the same
// registry the CLI uses, in quick mode; micro-benchmarks cover the LP and
// outage primitives; the rest measure the Engine's batch, sweep, region,
// campaign and result-cache paths.

import (
	"context"
	"testing"

	"bicoop"
	"bicoop/internal/cache"
	"bicoop/internal/channel"
	"bicoop/internal/experiments"
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

// --- Figure-level experiments (the registry's ids: fig3, crossover, fading). ---

// BenchmarkFig3 regenerates Fig 3: sum rates vs relay placement.
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkSNRCrossover sweeps the MABC/TDBC crossover claim.
func BenchmarkSNRCrossover(b *testing.B) { benchExperiment(b, "crossover") }

// BenchmarkFadingOutage runs the Rayleigh fading Monte Carlo.
func BenchmarkFadingOutage(b *testing.B) { benchExperiment(b, "fading") }

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

// --- Engine batch, sweep, region and campaign paths. ---

// batchScenarios builds the 1000-point power × gain grid the batch
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
// curves — the region workload on the sharded core (one curve per chunk,
// edge refinement to the exact vertices, cold-solved HBC LPs, streamed
// hulls). Angles is deprecated and ignored.
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
