#!/usr/bin/env bash
# Builds and runs the fuzzing harnesses (DESIGN.md §10).
#
# Usage:
#   tools/run_fuzz.sh smoke            # 60s split across all targets (CI gate)
#   tools/run_fuzz.sh <target> [args]  # one target, extra args to the engine
#   tools/run_fuzz.sh all [seconds]    # every target, [seconds] each (default 60)
#
# Targets: fuzz_lexer fuzz_parser fuzz_pipeline fuzz_wire fuzz_enumerate
#
# Exit code is non-zero if any target crashed; crash inputs land in
# build-fuzz/artifacts/ for replay (`build-fuzz/fuzz/fuzz_parser <crash-file>`).
set -u

cd "$(dirname "$0")/.."
BUILD_DIR=build-fuzz
TARGETS="fuzz_lexer fuzz_parser fuzz_pipeline fuzz_wire fuzz_enumerate"
DICT=fuzz/buffy.dict
# Seed corpus is materialized at configure time from examples/models/
# (single source of truth — see fuzz/CMakeLists.txt).
CORPUS=$BUILD_DIR/fuzz/corpus
REGRESSIONS=tests/corpus

build() {
  cmake --preset fuzz >/dev/null || return 1
  cmake --build --preset fuzz -j >/dev/null || return 1
}

run_target() {
  local target=$1 seconds=$2
  shift 2
  mkdir -p "$BUILD_DIR/artifacts"
  echo "== $target (${seconds}s) =="
  # Seed corpus + committed regression inputs; the standalone driver and
  # libFuzzer accept the same flags.
  "$BUILD_DIR/fuzz/$target" \
    -max_total_time="$seconds" \
    -runs=100000000 \
    -dict="$DICT" \
    -artifact_prefix="$BUILD_DIR/artifacts/${target}-" \
    "$CORPUS" "$REGRESSIONS" "$@"
}

main() {
  local mode=${1:-smoke}
  shift || true

  build || { echo "run_fuzz.sh: build failed" >&2; exit 1; }

  local failures=0
  case "$mode" in
    smoke)
      # The CI gate: ~60s wall time split across the five targets.
      for t in $TARGETS; do
        run_target "$t" 12 || failures=$((failures + 1))
      done
      ;;
    all)
      local seconds=${1:-60}
      for t in $TARGETS; do
        run_target "$t" "$seconds" || failures=$((failures + 1))
      done
      ;;
    fuzz_*)
      run_target "$mode" "${FUZZ_SECONDS:-60}" "$@" || failures=1
      ;;
    *)
      echo "usage: tools/run_fuzz.sh [smoke|all [seconds]|<target> [args]]" >&2
      exit 2
      ;;
  esac

  if [ "$failures" -ne 0 ]; then
    echo "run_fuzz.sh: $failures target(s) crashed; see $BUILD_DIR/artifacts/" >&2
    exit 1
  fi
  echo "run_fuzz.sh: all targets clean"
}

main "$@"
