#!/bin/sh
# service_chaos.sh — the bccd crash-recovery gate. Builds the daemon, runs a
# ~30k-point sweep job to completion once (the reference), then runs the same
# job on a fresh store under a kill -9 loop: the daemon is SIGKILLed at
# growing uptimes and restarted over the same store until the job reports
# done. The recovered results.csv must be byte-identical to the
# uninterrupted run's, and at least one kill must actually land mid-job —
# a loop that never interrupts anything proves nothing and fails.
#
# Every daemon here runs with the durable result cache (-cache), so the
# kill loop also chaos-tests the cache.log tier: torn tails from SIGKILL
# mid-append must be compacted away on restart, never poison replay, and
# never perturb a byte of output. Both runs use -cache because cached runs
# solve cold (see the internal/cache package doc) — the cache-enabled
# uninterrupted run IS the canonical reference. Afterwards the chaos store
# gets one more restart and a resubmission of the same job, which must be
# served from the replayed cache (hits observed on /stats) and again match
# the reference byte for byte.
#
# Usage: ./scripts/service_chaos.sh [workdir]
set -eu

work="${1:-$(mktemp -d)}"
cd "$(dirname "$0")/.."
go build -o "$work/bccd" ./cmd/bccd

# The job: 201 powers x 30 placements x 5 protocols = 30150 points on one
# worker ("workers":1), slow enough for the kills below to land mid-job.
# %.17g keeps the float64 axes round-trip exact, so both runs parse
# byte-for-byte identical specs.
awk 'BEGIN{
  printf "{\"sweep\":{\"base\":{\"PowerDB\":0,\"GabDB\":-7,\"GarDB\":0,\"GbrDB\":5},\"powers_db\":[";
  for (p = 0; p <= 200; p++) printf "%s%.17g", (p ? "," : ""), p / 10;
  printf "],\"placements\":[";
  for (i = 0; i < 30; i++)
    printf "%s{\"Pos\":%.17g,\"Exponent\":3,\"GabDB\":-7}", (i ? "," : ""), 0.05 + 0.9 * i / 29;
  printf "],\"workers\":1}}";
}' > "$work/job.json"

# start_bccd <store>: launch the daemon on an ephemeral port and wait for
# the address file. Sets $pid and $addr.
start_bccd() {
    rm -f "$work/addr"
    "$work/bccd" -store "$1" -cache 65536 -addr 127.0.0.1:0 -addrfile "$work/addr" 2>> "$work/bccd.log" &
    pid=$!
    for _ in $(seq 1 500); do
        [ -s "$work/addr" ] && break
        sleep 0.01
    done
    [ -s "$work/addr" ] || { echo "bccd never wrote its address" >&2; exit 1; }
    addr="$(cat "$work/addr")"
}

submit_job() {
    curl -sS -f -o /dev/null -X POST --data-binary @"$work/job.json" "http://$addr/v1/jobs"
}

job_done() {
    grep -q '"done"' "$1/${2:-j000001}/state.json" 2> /dev/null
}

# Reference: the same job, uninterrupted, SIGTERM-drained afterwards.
start_bccd "$work/ref"
submit_job
for _ in $(seq 1 600); do
    job_done "$work/ref" && break
    sleep 0.05
done
job_done "$work/ref" || { echo "reference job never completed" >&2; exit 1; }
kill -TERM "$pid"
wait "$pid"

# Chaos: kill -9 at growing uptimes (the growth guarantees termination even
# on a slow runner; the small start guarantees the first kills land mid-job
# on a fast one), restart over the same store, until the job is done.
kills=0
for attempt in $(seq 0 49); do
    start_bccd "$work/chaos"
    [ "$attempt" -eq 0 ] && submit_job
    sleep "$(awk -v a="$attempt" 'BEGIN{printf "%.2f", 0.04 + 0.02 * a}')"
    if job_done "$work/chaos"; then
        kill -9 "$pid" 2> /dev/null || true
        wait "$pid" 2> /dev/null || true
        break
    fi
    kill -9 "$pid"
    wait "$pid" 2> /dev/null || true
    kills=$((kills + 1))
done
job_done "$work/chaos" || { echo "job never completed across $kills kills" >&2; exit 1; }
[ "$kills" -ge 1 ] || { echo "job finished before the first kill; the loop proved nothing" >&2; exit 1; }
echo "recovered from $kills SIGKILLs"
cmp "$work/ref/j000001/results.csv" "$work/chaos/j000001/results.csv"
echo "recovered results byte-identical to the uninterrupted run"

# Cache rerun: one more restart over the chaos store (replaying whatever
# survived the kills in cache.log) and a resubmission of the same job. The
# rerun must be served at least partly from cache — /stats hits observed —
# and its results.csv must again equal the reference's.
start_bccd "$work/chaos"
submit_job
for _ in $(seq 1 600); do
    job_done "$work/chaos" j000002 && break
    sleep 0.05
done
job_done "$work/chaos" j000002 || { echo "cache rerun job never completed" >&2; exit 1; }
hits="$(curl -sS -f "http://$addr/stats" | sed -n 's/.*"hits":\([0-9]*\).*/\1/p')"
kill -TERM "$pid"
wait "$pid"
[ -n "$hits" ] || { echo "/stats returned no cache hit counter" >&2; exit 1; }
[ "$hits" -gt 0 ] || { echo "cache rerun recorded zero hits; the durable tier is dead" >&2; exit 1; }
cmp "$work/ref/j000001/results.csv" "$work/chaos/j000002/results.csv"
echo "cache-served rerun ($hits hits) byte-identical to the uninterrupted run"
