// Package bicoop is a library for analyzing coded bidirectional cooperation
// ("two-way relaying") protocols over half-duplex channels, reproducing
//
//	S.J. Kim, P. Mitran, V. Tarokh,
//	"Performance Bounds for Bidirectional Coded Cooperation Protocols"
//	(ICDCS 2007 / IEEE Transactions on Information Theory 54(11), 2008).
//
// Two terminals a and b exchange messages with the help of a relay r. The
// library evaluates achievable-rate (inner) and converse (outer) bounds for
// the paper's decode-and-forward protocols
//
//   - DT: direct transmission, no relay;
//   - Naive4: four-phase store-and-forward relaying, no network coding;
//   - MABC: two-phase multiple-access broadcast (Theorem 2, tight);
//   - TDBC: three-phase time-division broadcast (Theorems 3-4);
//   - HBC: four-phase hybrid broadcast (Theorems 5-6);
//
// on the Gaussian channel with path loss (Section IV), optimizes phase
// durations by linear programming, computes full rate regions, verifies the
// paper's findings (MABC/TDBC SNR crossover; achievable HBC points beyond
// both outer bounds), and provides Monte Carlo simulators: Rayleigh
// block-fading outage and bit-true TDBC/MABC implementations over erasure
// networks using random linear codes and XOR network coding.
//
// # The Engine
//
// The API centers on the concurrency-safe Engine, the single entry point
// for the protocol bounds, the simulators and the experiments. It leases
// evaluators (compiled constraint templates keyed by (protocol, bound),
// reusable LP workspaces, closed-form fast paths) from one process-wide
// pool, sizes the simulator worker pools, and exposes context-aware
// methods for every workload shape:
//
//	eng := bicoop.NewEngine()
//	s := bicoop.Scenario{PowerDB: 10, GabDB: -7, GarDB: 0, GbrDB: 5}
//
//	// Single evaluations.
//	res, err := eng.SumRate(bicoop.HBC, bicoop.Inner, s)
//	ok, err := eng.Feasible(bicoop.HBC, bicoop.Inner, s, bicoop.RatePoint{Ra: 1, Rb: 1})
//
//	// Rate regions: the support-direction sweep behind one Fig 4 curve,
//	// sharded across workers and cancellable mid-curve. RegionOptions.Angles
//	// is the resolution knob: more support directions recover more polygon
//	// vertices exactly (0 means 181, the paper's Fig 4 resolution; the two
//	// axis maxima are always solved exactly on top of the sweep, so coarse
//	// sweeps still anchor max Ra / max Rb). RegionBatch computes whole
//	// curve families — scenarios × protocol bounds — in one sharded run.
//	reg, err := eng.Region(ctx, bicoop.HBC, bicoop.Inner, s, bicoop.RegionOptions{Angles: 361})
//	err = eng.RegionBatch(ctx, bicoop.RegionBatchSpec{...}, func(pt bicoop.RegionBatchPoint) error { ... })
//
//	// Batches: thousands of scenarios sharded across a worker pool, each
//	// worker holding one pooled evaluator.
//	results, err := eng.SumRateBatch(ctx, bicoop.TDBC, bicoop.Inner, scenarios)
//
//	// Declarative grids (power × relay placement × protocol, plus an
//	// erasure-network axis), evaluated in parallel and streamed point by
//	// point in enumeration order.
//	err = eng.Sweep(ctx, bicoop.SweepSpec{...}, func(pt bicoop.SweepPoint) error { ... })
//
//	// The unified Monte Carlo entry point: one SimSpec selects the fading
//	// or bit-true simulator under a common Trials/Seed/Workers/Progress
//	// contract; cancelling ctx stops the shard loops within one trial and
//	// returns the statistics over the trials completed so far.
//	sim, err := eng.Simulate(ctx, bicoop.SimSpec{Fading: &bicoop.FadingSpec{Scenario: s}})
//
//	// Campaigns: families of simulation runs — waterfall scale axes, seed
//	// or SNR families — pipelined across an outer worker pool with
//	// deterministic per-spec seeds, streamed as whole runs in spec order.
//	all, err := eng.SimulateBatch(ctx, bicoop.CampaignSpec{Specs: specs}, nil)
//
// All Engine methods are safe for concurrent use from many goroutines.
// Inputs are validated up front with typed sentinels (ErrInvalidScenario,
// ErrInvalidTrials, ErrInvalidBlockLength, ...) so malformed scenarios fail
// loudly instead of propagating NaNs into results.
//
// # Resilience
//
// Long sweeps and campaigns get interrupted: a Ctrl-C, a deadline, a killed
// process, a workload panic. The streaming specs (SweepSpec,
// RegionBatchSpec, CampaignSpec) share two resilience primitives, built into
// the sharded core so every guarantee below composes with the
// bit-identical-across-Workers contract. Failed chunks are not retried:
// every result is a deterministic function of its spec, so a chunk that
// failed once would fail the same way again, and the run stops at its first
// failed chunk.
//
// Panic containment: a panic inside a worker never crashes the process. It
// is recovered per chunk and surfaced as a *ChunkError wrapping a
// *PanicError (recovered value + stack), reachable through errors.As on the
// returned error.
//
// Checkpoint/resume: a spec's Checkpoint field observes the resume
// watermark — the contiguous prefix of results already delivered to the
// caller, in the spec's own yield units (points, curves, or runs) — and the
// Start field resumes a later run past it. Saves fire only after the
// corresponding yields returned, so a watermark never overstates delivery,
// and the concatenated yields of an interrupted run plus its resume equal
// an uninterrupted run's exactly:
//
//	ck := &bicoop.FileCheckpoint{Path: "sweep.ck"}
//	spec.Checkpoint = ck
//	spec.Start, _ = ck.Load() // 0 on the first run
//	err := eng.Sweep(ctx, spec, writeRow)
//
// The CLI packages the recipe: `bcc sweep -o grid.csv -checkpoint grid.ck`
// persists {watermark, CSV byte offset} atomically as the sweep streams, a
// rerun truncates the CSV to the checkpointed offset and resumes from the
// watermark, and the finished file is byte-identical to an uninterrupted
// run's — through any number of Ctrl-C, -timeout (exit 124), or kill -9
// interruptions. Deterministic fault injection for testing these paths
// lives in internal/sweep/chaos: it wraps a workload with seed-keyed
// delays, permanent faults and panics, every injection a pure function of
// (seed, chunk), so a delay-injected run is asserted bit-identical to a
// fault-free one at every worker count.
//
// # Running bccd
//
// Command bccd serves the same engine as a crash-safe HTTP/JSON job
// daemon, for long sweeps that should survive the submitting shell — and
// the machine. It layers the checkpoint/resume discipline above into a
// durable job store (internal/service): each job gets a directory holding
// its spec verbatim, its state, a streaming results.csv, and a
// {watermark, byte offset} checkpoint saved atomically as rows flush.
//
//	bccd -store /var/lib/bccd -addr 127.0.0.1:8347
//
//	POST   /v1/jobs              submit a job; 201 + {"id": "j000001", ...}
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         job status: state, error, resume watermark
//	GET    /v1/jobs/{id}/results the CSV so far (live jobs: checkpointed
//	                             prefix only, never retractable rows)
//	DELETE /v1/jobs/{id}         cancel; partial results stay valid
//	GET    /healthz              {"ok": true, "draining": false}
//
// A job is exactly one of "sweep", "region_batch" or "campaign" (mirroring
// SweepSpec, RegionBatchSpec, CampaignSpec; enums travel as names), plus
// an optional "timeout_ms":
//
//	{"sweep": {"base": {"PowerDB": 0, "GabDB": -7, "GarDB": 0, "GbrDB": 5},
//	           "powers_db": [0, 10, 20], "protocols": ["MABC", "TDBC"]}}
//
// The guarantees are the CLI's, detached from any client: kill -9 the
// daemon mid-job and the restarted daemon rescans the store, re-queues
// interrupted jobs, truncates each results.csv to its checkpointed offset,
// and resumes from the watermark — the finished file is byte-identical to
// an uninterrupted run's (the service-chaos CI job pins this at several
// worker counts). SIGTERM drains gracefully: admission stops (503 +
// Retry-After), running jobs checkpoint and park back to queued, and the
// process exits within -drain. A full queue sheds new submissions with 429
// + Retry-After instead of buffering unboundedly; "timeout_ms" lands a job
// past its deadline in state "timeout" with valid partial results,
// mirroring bcc's exit-124 contract. `make service-smoke` runs the
// end-to-end lifecycle; `make service-chaos` runs the kill -9 gate.
//
// # Result cache
//
// Every analytic bound is a pure function of (protocol, bound, scenario),
// and real workloads repeat scenarios constantly — a placement sweep
// revisits the same grid point at every power, a resubmitted bccd job
// re-solves yesterday's grid verbatim. WithCache(capacity) puts a
// scenario-keyed result cache (internal/cache) in front of the LP solves.
// Every point of SumRate, SumRateBatch, Sweep and RegionBatch goes through
// one method, cache.(*Store).Solve, which serves a hit or solves the point
// and fills the store; a cache-off engine takes the same path with a nil
// store, which always solves and stores nothing. The CLI exposes the cache
// as `bcc sweep -cache N`; the daemon as `bccd -cache N`, which also opens
// the durable tier described below.
//
// Keys are exact: every real coordinate (dB powers and gains, erasure
// probabilities, support-direction weights) enters its key as its
// IEEE-754 bits, with -0 folded onto +0, through one chokepoint,
// cache.Quantize. Equal coordinates produce byte-equal keys on every
// platform (the cachekey analyzer rejects keys assembled any other way),
// and a scenario one ulp away is a different key, so a hit only ever
// serves the exact scenario that was solved.
//
// Cached values are the same solves an uncached run performs. Every LP
// is solved cold, from the all-slack basis, so a solve depends only on
// its own point and never on which points preceded it. A cached run
// therefore equals an uncached run, another cached run, a single-point
// SumRate, and itself at any worker count, bit for bit, for all five
// protocols (pinned by == tests at Workers 1/2/7 and at one-ulp
// neighbours), even at degenerate points with several optimal vertices.
//
// The in-process tier is a sharded store: 64 shards, one mutex and a
// flat entry array per shard, second-chance (clock) eviction, zero
// allocations on the hit path (~120 bytes per entry plus map overhead,
// so -cache 65536 costs ~10 MB). Engine.CacheStats reports Hits, Misses,
// Fills and Evictions since construction; Hits+Misses counts lookups
// exactly, and Fills counts distinct keys filled (concurrent workers may
// race to solve the same key — the loser's overwrite is counted as a
// miss but not a fill). bccd republishes the counters at GET /stats.
//
// bccd adds a durable tier (internal/service.CacheLog): an append-only
// cache.log next to the job store, one fixed-size CRC32-checked record
// per fill, flushed after every job and replayed into the store at
// startup — so a resubmitted job after a restart is served from cache.
// Fills are warmth, not correctness: replay stops at the first torn or
// corrupt record, compaction snapshots the live entries via tmp+rename
// (also triggered when stale records bloat the log past twice the live
// count), and a kill -9 at any instant loses at most the unflushed tail,
// which the next run re-solves. The service-chaos gate pins this: a
// cache-served rerun across SIGKILLs must be byte-identical to the
// uninterrupted run. The bench-gate CI job pins the fast path itself —
// an all-hit batch must stay at least 5x cheaper than the same batch
// all-miss (`benchjson compare -min-speedup`).
//
// # Performance and profiling
//
// Every reported quantity reduces to a tiny phase-duration LP per scenario,
// re-solved per protocol per fading block by the Monte Carlo layer. The hot
// path is allocation-free in steady state: internal/protocols.Evaluator
// caches the scenario-independent constraint structure per protocol/bound,
// evaluates only the mutual-information terms that structure references
// (exact aliases share one transcendental), solves the two- and three-phase
// bounds (DT, MABC, TDBC) in closed form by candidate-vertex enumeration,
// and falls back to a reusable-workspace simplex (internal/simplex) for
// Naive4/HBC.
//
// Every parallel workload in the repository — SumRateBatch and Sweep grids,
// Region and RegionBatch support sweeps, SimulateBatch campaigns, and the
// figure experiments — executes through one generic sharded core,
// internal/sweep.RunCore: an indexed point set is split into fixed-size
// chunks pulled by a worker pool (claim = one atomic add), each worker owns
// private state supplied by a Hooks[W] pair (NewWorker/CloseWorker),
// completed chunks stream to an ordered emitter under a
// bounded backpressure window (~2x workers chunks live), and cancellation
// is a context.AfterFunc flipping one atomic flag polled per chunk, with
// the contiguous completed prefix reported alongside the context error.
// Sharding a new axis is three decisions: flatten the axis into point
// indices (the grid flattens power x placement x protocol; regions flatten
// curves x support directions; campaigns flatten whole simulation runs at
// chunk size 1), pick the per-worker state W (a leased evaluator;
// stateless workloads pass Hooks[struct{}]{}), and write results into
// index-addressed storage so the emitter can stream them in enumeration
// order. W is scratch, never memory: a point's result must not depend on
// what its worker evaluated before, which is what makes every result
// bit-identical from 1 worker to N. Chunk boundaries depend only on the
// point count and chunk size — never on Workers — so checkpoints land on
// the same indices for every worker count.
//
// For the LP grids concretely: each worker leases one evaluator from the
// process-wide pool (protocols.GetEvaluator), and
// every Naive4/HBC LP is a cold simplex.SolveIn solve. The parallel knobs:
// WithWorkers sets an engine-wide default; SweepSpec.Workers,
// RegionOptions.Workers, RegionBatchSpec.Workers and CampaignSpec.Workers
// override per run; all default to GOMAXPROCS. A post-solve refinement
// step makes every LP solution a function of its final basis alone,
// independent of the pivot path's rounding. Batch, sweep and region
// results are bit-identical for every Workers setting — worker count only
// trades wall-clock time for cores. Campaigns keep the same guarantee one
// level up: every SimSpec carries its own seed, and inside a campaign a
// spec's zero Workers field means one trial goroutine (not the engine
// default), so campaign statistics never depend on the outer worker count
// or the host's core count.
// The figure pipeline streams: experiments consume sweep points through
// callbacks, tables accumulate raw floats (plot.ColumnTable) and format
// once at render time, and each canonical figure emits a text+CSV artifact
// pinned by golden-file tests (internal/experiments/testdata/figures;
// regenerate with `go test ./internal/experiments/ -run TestGoldenFigures
// -update`).
//
// The bit-true simulators are word-parallel end to end: internal/gf2 packs
// rows into flat []uint64 matrices redrawn in place per block
// (Matrix.Rerandomize); link erasures are drawn 64 channel uses at a time by
// prob.WordBernoulli masks (one ~8-draw fixed-point refinement per 64
// positions instead of 64 Float64 calls; survivors visited by a
// TrailingZeros64 scan — see internal/sim/erasure.go); and decoding runs
// through a reusable word-level elimination tableau (gf2.Solver.SolveInto
// and the SolveConsistentInto early-stop variant for noiseless erasure
// observations), which past 512 unknowns switches to a dense M4RI-style
// multi-column eliminator (internal/gf2/m4ri.go: 8 pivot columns per pass
// via a 256-entry combination table). The TDBC/MABC trial loops run on a
// worker pool with per-worker RNGs, codes, and scratch — zero allocations
// per block. Context cancellation costs one atomic flag load per trial
// (internal/sim's runGate), so a cancelled run stops within one trial
// without slowing an uncancelled one. Allocation regressions are pinned by
// testing.AllocsPerRun tests next to the hot paths (internal/protocols,
// internal/sim, internal/simplex, internal/gf2).
//
// Canonical-stream migration note: the word-parallel masks replaced the
// retired one-Float64-per-position erasure sampling, which changed the
// bit-true simulators' canonical random stream. Results remain a pure
// function of (Seed, Trials, Workers), but a seed recorded against the
// scalar stream now produces a different — statistically equally valid —
// sample path, so success counts from pre-mask releases are not directly
// comparable at the per-seed level (the statistical contracts, waterfall
// thresholds and sharded-vs-sequential agreement all carry over).
//
// Start perf work from a profile, not a guess:
//
//	# profile a real workload through the CLI (also for bit-true runs:
//	# -workers caps GOMAXPROCS, which bounds every simulator's pool)
//	go run ./cmd/bcc run fading -workers 1 -cpuprofile /tmp/cpu.prof
//	go run ./cmd/bcc run bitsim -workers 8 -cpuprofile /tmp/bitsim.prof
//	go tool pprof -top /tmp/cpu.prof
//
//	# or profile the micro-benchmarks around the kernel you are changing
//	go test ./internal/sim/ -run '^$' -bench BenchmarkOutageTrial \
//	    -benchmem -cpuprofile /tmp/trial.prof
//	go test ./internal/sim/ -run '^$' -bench 'BenchmarkErasureMask' \
//	    -benchmem   # word-parallel masks vs the retired scalar sampler
//	go test ./internal/gf2/ -run '^$' -bench 'BenchmarkSolve(Incremental|M4RI)' \
//	    -benchtime 20x -benchmem   # elimination ladder at 256/1k/4k unknowns
//	go test . -run '^$' -bench 'BenchmarkEngineSumRateBatch$' \
//	    -benchmem   # engine batch over a 1k-scenario grid
//	go test ./internal/sim/ -run '^$' -bench 'BenchmarkBitTrue(TDBC|MABC)(Parallel)?$' \
//	    -benchtime 10x -benchmem   # full runs, sequential vs sharded
//	go tool pprof -top /tmp/trial.prof
//
//	# record the before/after ledger (writes BENCH_*.json)
//	./scripts/bench.sh BENCH_after.json
//
//	# the perf regression gate: short ledger run compared against the
//	# committed BENCH_after.json; nonzero exit on a hot-path time
//	# regression, on allocs appearing in a 0-alloc kernel, or on a
//	# benchmark disappearing (stale bench.sh pattern)
//	make bench-compare
//	go run ./cmd/benchjson compare BENCH_after.json BENCH_ci.json -threshold 1.25
//
// BENCH_baseline.json (the pre-optimization revision) and BENCH_after.json
// (current) are committed at the repo root; keep them in sync with scripts/
// bench.sh when a PR changes performance-relevant code. CI's bench-gate job
// runs the same compare with a looser threshold (cross-machine ns/op), so a
// perf regression fails the PR instead of silently rotting the ledger; the
// bench.sh pattern lists themselves are guarded by TestBenchLedgerCoverage.
// allocs/op depends on the worker count, not just the code: sharded
// benchmarks lease one evaluator and buffers per worker, so the same
// benchmark allocates more at GOMAXPROCS=2 than at 1. bench.sh therefore
// pins `-cpu 1`, the setting the committed ledger was recorded at, which
// makes the allocation gate compare one code path on every host.
//
// # Static analysis
//
// The repository's cross-cutting invariants — the rules the sections above
// state in prose — are enforced mechanically by cmd/bcclint, a stdlib-only
// multichecker built on internal/lint. `make lint` (or
// `go run ./cmd/bcclint ./...`) runs six project analyzers:
//
//   - detrand: result-producing packages draw no nondeterminism — no
//     global math/rand (seeds travel in specs) and no wall-clock reads —
//     so every result stays a pure function of its inputs and the
//     bit-identical-across-Workers contract survives.
//   - noalloc: functions annotated `//bicoop:noalloc` (the gf2, simplex
//     and bit-true per-block kernels) must not contain allocating
//     constructs; the annotation turns the "zero allocations per block"
//     claim into a compile-time-checkable contract alongside the
//     AllocsPerRun tests. The directive on a package clause (internal/gf2)
//     widens the scope to every function in the package, with
//     `//bicoop:allow noalloc` doc waivers as the audited opt-out for cold
//     constructors and scratch growers.
//   - ctxflow: exported Run*/Sweep*/Simulate* entry points take a
//     context.Context first, and nothing outside package main mints its
//     own context.Background/TODO — cancellation always threads from the
//     caller.
//   - atomicwrite: internal/service writes durable files only through
//     functions annotated `//bicoop:atomicio` (tmp+rename or an audited
//     checkpoint-truncate), keeping the kill -9 recovery story auditable
//     at the call-site level.
//   - errwrap: sentinel comparisons use errors.Is, and fmt.Errorf wraps
//     with %w rather than flattening with %v/%s, so errors.Is/As keep
//     working across API layers.
//   - cachekey: result-cache keys are built only by internal/cache's
//     constructors — a hand-assembled cache.Key literal or a Key field
//     write outside that package can skip Quantize or the layout-version
//     stamp and silently alias or orphan cache entries.
//
// A finding is fixed, or waived in place with a one-line audited comment
// `//bicoop:allow <analyzer> — reason` covering that line and the next.
// The suite runs clean over the whole module and CI's lint job keeps it
// that way, alongside version-pinned staticcheck (SA checks) and
// govulncheck. The analyzers are plain go/ast+go/types passes loaded via
// `go list -export` (no external dependencies); their fixtures live in
// internal/lint/analyzers/testdata with both flagged and deliberately
// clean near-miss cases.
package bicoop
