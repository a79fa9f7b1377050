#!/usr/bin/env bash
# Rebuilds the Release benchmark tree (opt-bench preset) and refreshes ALL
# committed benchmark JSONs in one run on one host, so the numbers in
# BENCH_incremental.json, BENCH_opt.json, BENCH_portfolio.json,
# BENCH_isolation.json, BENCH_cache.json, and BENCH_frontend.json are
# always comparable:
#
#   tools/run_benches.sh
#
# Every benchmark binary exits nonzero when its pass criterion fails
# (incremental beats fresh; optimizer verdict identity + speedup/reduction
# threshold; sharded sweep >= 1.3x and race never slower than the serial
# ladder; isolation overhead <= 1.15x with 100% availability under crash
# storms; warm cache >= 5x with <= 2% cold overhead), which this script
# propagates (micro_frontend is a google-benchmark binary with no pass
# criterion of its own — it fails only on crash). After refreshing, each
# JSON is schema-validated by tools/validate_bench.py so a formatting
# regression in a benchmark's hand-written writer cannot land silently.
set -euo pipefail

cd "$(dirname "$0")/.."

# bench_isolation spawns `buffy --worker` subprocesses; if a bench (or
# this script) dies mid-run, reap any of OUR workers left behind. The -P $$
# scope limits the sweep to this script's direct descendants — never
# someone else's buffy processes.
cleanup() {
  pkill -KILL -P $$ -f -- '--worker' 2>/dev/null || true
}
trap cleanup EXIT INT TERM

cmake --preset opt-bench
cmake --build --preset opt-bench -j "$(nproc)" \
  --target bench_incremental bench_opt bench_portfolio bench_isolation \
           bench_cache micro_frontend

cd build-bench
./bench/bench_incremental
./bench/bench_opt
./bench/bench_portfolio
./bench/bench_isolation
./bench/bench_cache
./bench/micro_frontend --benchmark_out=BENCH_frontend.json \
  --benchmark_out_format=json

cp BENCH_incremental.json BENCH_opt.json BENCH_portfolio.json \
   BENCH_isolation.json BENCH_cache.json BENCH_frontend.json ..
cd ..
echo "validating refreshed benchmark JSONs"
python3 tools/validate_bench.py
echo "refreshed BENCH_incremental.json, BENCH_opt.json," \
     "BENCH_portfolio.json, BENCH_isolation.json, BENCH_cache.json," \
     "BENCH_frontend.json"
