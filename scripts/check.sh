#!/usr/bin/env bash
# Repo verification: tier-1 build + full test suite, then the EvoBench
# benchmark's own tests built against the engine sources, an ASan/UBSan
# build of the data-plane, EvoScope-facing, keyed-state, LSM and windowing
# suites (channel, obs, dataflow, integration, state, lsm, lsm_crash,
# operators, window_diff, and the chaos suite's LSM storage-fault schedules,
# whose ingests write SST files under faults) and of EvoBench's own tests
# (real jobs through flush, compaction, pinned checkpoint scans and
# ingest-restore) to catch memory errors/UB the release build hides
# (channel_test also runs with leak detection on, since channels own the
# elements queued in them), and a TSan build of the data-plane suites (channel ring buffer, task
# loops and their park/wake protocol, stress tests, the chaos suite's
# crash-recovery schedules) and of the LSM suite (pinned scans stepped
# between writes, scans racing a writer's compactions) and of the EvoScope
# suites (obs: shared histograms and the registry; introspection: the event
# journal under concurrent emitters and a cursor reader, the HTTP server's
# start/stop) to catch ordering bugs in the lock-free and locked paths.
#
# Usage: scripts/check.sh [--fast]
#   --fast   skip the chaos and sanitizer stages
#
# The chaos stage runs the EvoChaos crash-recovery suite (`ctest -L chaos`)
# with a small fixed seed count per protocol for CI determinism; set
# EVO_CHAOS_SEEDS=<n> to widen the sweep locally (e.g. EVO_CHAOS_SEEDS=100).

set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

echo "=== tier-1: configure + build ==="
cmake -B build -S . >/dev/null
cmake --build build -j"$(nproc)"

echo "=== tier-1: ctest ==="
(cd build && ctest --output-on-failure -j"$(nproc)")

echo "=== EvoScope Live: introspection smoke (quickstart + curl) ==="
SMOKE_OUT="$(mktemp)"
EVO_INTROSPECT_PORT=0 EVO_INTROSPECT_HOLD_MS=20000 \
  ./build/examples/quickstart >"$SMOKE_OUT" 2>&1 &
SMOKE_PID=$!
trap 'kill "$SMOKE_PID" 2>/dev/null || true; rm -f "$SMOKE_OUT"' EXIT

# Wait for the job to print its bound port and the ready-made state URL.
STATE_URL=""
for _ in $(seq 1 120); do
  STATE_URL="$(sed -n 's/^SMOKE_STATE_URL=//p' "$SMOKE_OUT" | head -n1)"
  [[ -n "$STATE_URL" ]] && break
  kill -0 "$SMOKE_PID" 2>/dev/null || { cat "$SMOKE_OUT"; echo "FAIL: quickstart exited early"; exit 1; }
  sleep 0.5
done
[[ -n "$STATE_URL" ]] || { cat "$SMOKE_OUT"; echo "FAIL: no SMOKE_STATE_URL from quickstart"; exit 1; }
BASE_URL="$(sed -n 's/^EVOSCOPE_LIVE_URL=//p' "$SMOKE_OUT" | head -n1)"

smoke_curl() {  # smoke_curl <url> <must-contain>
  local url="$1" want="$2" body code
  body="$(curl -sS -w '\n%{http_code}' "$url")" || { echo "FAIL: curl $url"; exit 1; }
  code="${body##*$'\n'}"
  [[ "$code" == "200" ]] || { echo "FAIL: $url -> HTTP $code"; exit 1; }
  [[ "$body" == *"$want"* ]] || { echo "FAIL: $url body missing '$want'"; exit 1; }
  echo "  ok: $url"
}
smoke_curl "$BASE_URL/metrics" "task_records_in"
smoke_curl "$BASE_URL/topology" "\"vertices\""
smoke_curl "$BASE_URL/events" "job_start"
smoke_curl "$STATE_URL" "\"found\": true"

kill "$SMOKE_PID" 2>/dev/null || true
wait "$SMOKE_PID" 2>/dev/null || true
trap - EXIT
rm -f "$SMOKE_OUT"
echo "=== introspection smoke passed ==="

echo "=== EvoBench: build against src/ + evobench_test ==="
# Its own build tree: perfbench is a standalone CMake project over ../src.
# evobench_test checks the benchmark's backend decorator forwards snapshot,
# restore and drop with identical bytes.
cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-perfbench -j"$(nproc)" --target evobench evobench_test
./build-perfbench/evobench_test

if [[ "$FAST" == "1" ]]; then
  echo "=== skipping chaos + sanitizer stages (--fast) ==="
  exit 0
fi

echo "=== chaos: seeded crash-recovery sweep ==="
# Fixed seed count in CI (deterministic wall time); EVO_CHAOS_SEEDS widens it.
(cd build && EVO_CHAOS_SEEDS="${EVO_CHAOS_SEEDS:-6}" \
  ctest -L chaos --output-on-failure)

echo "=== tsan: configure + build data-plane tests ==="
TSAN_FLAGS="-fsanitize=thread -g -O1"
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="$TSAN_FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$TSAN_FLAGS" >/dev/null
cmake --build build-tsan -j"$(nproc)" \
  --target channel_test dataflow_test concurrency_test lsm_test chaos_test \
           obs_test introspection_test

echo "=== tsan: run ==="
for t in channel_test dataflow_test concurrency_test lsm_test obs_test \
         introspection_test; do
  echo "--- $t ---"
  ./build-tsan/tests/"$t"
done
echo "--- chaos_test ---"
EVO_CHAOS_SEEDS="${EVO_CHAOS_SEEDS:-6}" ./build-tsan/tests/chaos_test

echo "=== asan/ubsan: configure + build data-plane, obs-facing and state tests ==="
SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -g -O1"
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS" >/dev/null
cmake --build build-asan -j"$(nproc)" \
  --target channel_test obs_test dataflow_test integration_test \
           introspection_test state_test state_diff_test operators_test \
           window_diff_test lsm_test lsm_crash_test chaos_test

echo "=== asan/ubsan: run ==="
export ASAN_OPTIONS=detect_leaks=0   # tests intentionally leak-free-ish; races/UB are the target
for t in channel_test obs_test dataflow_test integration_test \
         introspection_test state_test state_diff_test operators_test \
         window_diff_test lsm_test lsm_crash_test; do
  echo "--- $t ---"
  ./build-asan/tests/"$t"
done
echo "--- chaos_test (LSM schedules) ---"
./build-asan/tests/chaos_test --gtest_filter='*Lsm*'
echo "--- channel_test (leak-checked) ---"
# Channels own their queued elements: destroying a channel, or stopping a
# job, with heap-owning records still queued must free each exactly once.
ASAN_OPTIONS=detect_leaks=1 ./build-asan/tests/channel_test

echo "=== asan/ubsan: EvoBench against src/ + evobench_test ==="
# EndToEnd.ShortRunsAreCorrect drives real jobs whose LSM state entries view
# memtable arenas and SST file buffers through flushes, compactions, pinned
# checkpoint scans and ingest-restores.
cmake -S perfbench -B build-perfbench-asan \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS" >/dev/null
cmake --build build-perfbench-asan -j"$(nproc)" --target evobench_test
./build-perfbench-asan/evobench_test

echo "=== all checks passed ==="
