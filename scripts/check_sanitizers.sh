#!/usr/bin/env bash
# Build and run tests under sanitizers in a dedicated build tree (the
# SANITIZE CMake option). Two modes:
#
#   default (SANITIZE unset or ON): the unit-test suite under AddressSanitizer
#     + UBSan, default tree build-asan. The benchmark harness and examples are
#     skipped: golden byte-identity and timing gates are meaningless under
#     sanitizer instrumentation — this run exists to catch memory errors and
#     UB in the simulator and queue implementations. It also turns assertions
#     on: the RelWithDebInfo default adds -DNDEBUG, so this is the one run in
#     which the simulator's protocol-state asserts execute.
#   SANITIZE=thread: the native concurrent tests (queues, baskets,
#     reclamation, value queue, native op recording) under ThreadSanitizer,
#     default tree build-tsan. Any data-race report fails the run.
#
# Usage: scripts/check_sanitizers.sh [build-dir]
#        SANITIZE=thread scripts/check_sanitizers.sh [build-dir]
# Env:   CTEST_PARALLEL_LEVEL (default mode; default 2), SBQ_SAN_JOBS (build jobs)
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=${SANITIZE:-ON}
JOBS=${SBQ_SAN_JOBS:-$(nproc 2>/dev/null || echo 2)}

if [ "$MODE" = thread ]; then
  BUILD_DIR=${1:-build-tsan}
  TESTS=(basket_test treiber_basket_test
         retired_list_test hazard_pointers_test
         ms_queue_test baskets_queue_test faa_queue_test cc_queue_test
         sbq_queue_test queue_concurrent_test queue_param_test
         queue_extra_test replay_test)
  # replay_test also holds single-threaded simulator and codec cases; only
  # its native recording/replay cases run real threads.
  declare -A FILTER=([replay_test]='NativeRecord.*:NativeReplay.*')
  cmake -B "$BUILD_DIR" -S . \
    -DSANITIZE=thread \
    -DSBQ_BUILD_BENCH=OFF \
    -DSBQ_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR" -j "$JOBS" --target "${TESTS[@]}"
  export TSAN_OPTIONS=${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}
  for t in "${TESTS[@]}"; do
    echo "== $t"
    "$BUILD_DIR/tests/$t" --gtest_brief=1 --gtest_filter="${FILTER[$t]:-*}"
  done
  echo "check_sanitizers: TSan native test run passed ($BUILD_DIR)"
  exit 0
fi

BUILD_DIR=${1:-build-asan}
cmake -B "$BUILD_DIR" -S . \
  -DSANITIZE=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g" \
  -DSBQ_BUILD_BENCH=OFF \
  -DSBQ_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j "$JOBS"

# Exclude the label families that need the bench harness or compare against
# timing/golden baselines; everything else runs instrumented.
export ASAN_OPTIONS=${ASAN_OPTIONS:-detect_leaks=1}
export UBSAN_OPTIONS=${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}
ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -j "${CTEST_PARALLEL_LEVEL:-2}" \
  -LE "bench|golden_rebaseline|perf_smoke|docs"

echo "check_sanitizers: ASan+UBSan test run (assertions on) passed ($BUILD_DIR)"
