#!/bin/sh
# bench.sh — run the performance-ledger benchmark set and write a JSON
# snapshot (see cmd/benchjson). Usage:
#
#   ./scripts/bench.sh BENCH_after.json [benchtime] [bittime]
#
# Each benchmark runs three times and cmd/benchjson merges the
# runs into one ledger row: the median ns/op and the largest B/op and
# allocs/op, so one noisy run neither sets a row nor fails the gate alone.
#
# The set covers the LP hot path at three levels: raw simplex solve, one
# evaluator solve per protocol, the Monte Carlo per-block kernel, and the
# figure-level sweeps (Fig 3 relay placement, MABC/TDBC crossover, fading
# Monte Carlo) — plus the bit-true path at two levels: full TDBC/MABC runs
# (sequential and sharded) and the per-block kernels, the engine's batch,
# sweep, region and campaign paths, and the sharded-core pair (RunCore bare
# vs resilience-armed — checkpointer saving every watermark on a zero-fault
# run — pinning the happy-path price of checkpointing), and the job-service
# pair (BenchmarkServiceJobOverhead vs BenchmarkServiceJobDirect — the fixed
# durability cost of running a sweep as a bccd job: store create, queue,
# executor claim, checkpointed log, state renames) with BenchmarkSweepRows
# (the CSV rows of one perfbench-sized sweep job through a ResultLog, gated
# at 0 allocs/op), and the result-cache
# set (BenchmarkSumRateBatchCachedHit vs ...Miss plus BenchmarkSweepCached
# and the store-level BenchmarkCacheHit — CI requires the hit/miss speedup
# via benchjson compare -min-speedup, and BenchmarkCacheHit's 0 allocs/op
# is gated like the other zero-alloc kernels), and the word-parallel kernel
# pairs (BenchmarkErasureMaskWord vs ...Scalar — CI requires the masked
# erasure sampling ≥3x over the retired per-position path — and the
# BenchmarkSolve{M4RI,Incremental}{256,1k,4k} elimination ladder, with the
# 4k M4RI-vs-incremental speedup gated in CI).
# The bit-true full-run benchmarks already iterate 64 blocks
# internally, so they get a smaller default -benchtime than the
# microbenchmarks. Both runs pin -cpu 1: sharded benchmarks allocate per
# worker, so allocs/op is only comparable across hosts at one fixed
# GOMAXPROCS, and the committed ledger was recorded at 1.
set -eu

out="${1:-BENCH.json}"
benchtime="${2:-200x}"
bittime="${3:-10x}"
cd "$(dirname "$0")/.."

# The pattern lists are guarded by TestBenchLedgerCoverage (bench_ledger_test.go):
# every alternative must match an existing benchmark, and every benchmark in the
# ledger packages must appear here — a new benchmark cannot be dropped from the
# ledger silently.
pattern='BenchmarkSimplexSolve$|BenchmarkEvaluatorSolve|BenchmarkEvaluatorFeasible$|BenchmarkOutageTrial$|BenchmarkSumRateLP$|BenchmarkFeasibility$|BenchmarkOutageBlock$|BenchmarkFig3$|BenchmarkSNRCrossover$|BenchmarkFadingOutage$|BenchmarkBitTrueTDBCBlock$|BenchmarkBitTrueMABCBlock$|BenchmarkBitTrueTDBCBlockNearBound$|BenchmarkBitTrueMABCBlockNearBound$|BenchmarkErasureMaskScalar$|BenchmarkErasureMaskWord$|BenchmarkEngineSumRateBatch$|BenchmarkEngineSweep$|BenchmarkRegionParallel$|BenchmarkCampaign$|BenchmarkRunCore$|BenchmarkRunCoreResilient$|BenchmarkServiceJobOverhead$|BenchmarkServiceJobDirect$|BenchmarkSweepRows$|BenchmarkSumRateBatchCachedHit$|BenchmarkSumRateBatchCachedMiss$|BenchmarkSweepCached$|BenchmarkCacheHit$'
bitpattern='BenchmarkBitTrueTDBC$|BenchmarkBitTrueTDBCParallel$|BenchmarkBitTrueMABC$|BenchmarkBitTrueMABCParallel$|BenchmarkSolveIncremental256$|BenchmarkSolveM4RI256$|BenchmarkSolveIncremental1k$|BenchmarkSolveM4RI1k$|BenchmarkSolveIncremental4k$|BenchmarkSolveM4RI4k$'

# The bench runs land in a temp file first, NOT straight into the benchjson
# pipeline: this is POSIX sh (no pipefail), so a failing `go test -bench`
# inside a pipeline would be masked by the pipe's last stage and the script
# would happily ledger a truncated run. With the redirect, set -e aborts on
# the failing go test before anything is ledgered.
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT INT TERM

go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" -count 3 -cpu 1 \
    . ./internal/protocols/ ./internal/sim/ ./internal/simplex/ ./internal/sweep/ \
    ./internal/service/ ./internal/cache/ > "$raw"
go test -run '^$' -bench "$bitpattern" -benchmem -benchtime "$bittime" -count 3 -cpu 1 \
    ./internal/sim/ ./internal/gf2/ >> "$raw"

tee /dev/stderr < "$raw" | go run ./cmd/benchjson > "$out"
echo "wrote $out" >&2
