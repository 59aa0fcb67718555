#!/usr/bin/env bash
# Full verification gate: Release build + ASan + TSan, ctest on each, a
# repeated parallel ctest lane over the snapshot/checkpoint/fleet suites,
# plus an explicit run of the checkpoint corruption fault-injection suite under
# ASan (truncations and bit flips must fail loads cleanly — no crash, no
# OOM, no half-trained model), the pinned golden routing replay, and a
# structural check of the stage_sim stats Prometheus exposition. Run from
# anywhere; builds live next to the source tree as
# build-check-{release,asan,tsan}.
#
# Usage: tools/check.sh [--fast]
#   --fast  Release build + tests only (skip the sanitizer builds).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

# Runs one gtest binary under --gtest_filter and fails when the filter
# selects no test. gtest 1.12 has no --gtest_fail_if_no_test_selected, and
# a filtered gate that a rename emptied would otherwise pass silently.
run_filtered() {
  local binary="$1" filter="$2" out
  if ! out="$("${binary}" --gtest_filter="${filter}" 2>&1)"; then
    printf '%s\n' "${out}"
    return 1
  fi
  printf '%s\n' "${out}"
  if grep -q '^\[==========\] 0 tests from' <<< "${out}"; then
    echo "error: --gtest_filter='${filter}' selected no test in ${binary}" >&2
    return 1
  fi
}

build_and_test() {
  local name="$1" sanitize="$2"
  local build_dir="${repo_root}/build-check-${name}"
  echo "=== [${name}] configure (STAGE_SANITIZE='${sanitize}') ==="
  cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=Release -DSTAGE_SANITIZE="${sanitize}" > /dev/null
  echo "=== [${name}] build ==="
  cmake --build "${build_dir}" -j "${jobs}"
  echo "=== [${name}] ctest ==="
  (cd "${build_dir}" && ctest --output-on-failure -j "${jobs}")
}

build_and_test release ""

# Tier-1 determinism lane: the suites that write snapshot files, repeated
# at full parallelism. gtest_discover_tests makes every case its own
# process; each writes into its own mkdtemp directory
# (tests/test_temp_dir.h), so no two processes can share a file name.
echo "=== [release] parallel repeat lane (snapshot/checkpoint/fleet suites) ==="
(cd "${repo_root}/build-check-release" && \
  ctest --output-on-failure -j "${jobs}" --repeat until-fail:5 \
    --no-tests=error -R 'Snapshot|Checkpoint|CorruptionSuite|FleetService')

echo "=== [release] GBT hot-path bench smoke (STAGE_BENCH_FAST=1) ==="
(cd "${repo_root}/build-check-release/bench" && \
  STAGE_BENCH_FAST=1 ./bench_gbt_hot_path)
bench_json="${repo_root}/build-check-release/bench/BENCH_gbt_hot_path.json"
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "${bench_json}" > /dev/null
else
  # No python3: at least require the closing speedup fields to be present.
  grep -q '"speedup"' "${bench_json}"
fi
echo "=== bench JSON OK: ${bench_json} ==="

echo "=== [release] global-model hot-path bench smoke (STAGE_BENCH_FAST=1) ==="
(cd "${repo_root}/build-check-release/bench" && \
  STAGE_BENCH_FAST=1 ./bench_global_hot_path)
global_bench_json="${repo_root}/build-check-release/bench/BENCH_global_hot_path.json"
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "${global_bench_json}" > /dev/null
else
  grep -q '"speedup"' "${global_bench_json}"
fi
echo "=== bench JSON OK: ${global_bench_json} ==="

echo "=== [release] fleet serving bench smoke (STAGE_BENCH_FAST=1) ==="
(cd "${repo_root}/build-check-release/bench" && \
  STAGE_BENCH_FAST=1 ./bench_fleet_serve)
fleet_bench_json="${repo_root}/build-check-release/bench/BENCH_fleet_serve.json"
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "${fleet_bench_json}" > /dev/null
else
  grep -q '"predictions_per_sec"' "${fleet_bench_json}"
fi
echo "=== bench JSON OK: ${fleet_bench_json} ==="

echo "=== [release] closed-loop WLM bench smoke (STAGE_BENCH_FAST=1) ==="
(cd "${repo_root}/build-check-release/bench" && \
  STAGE_BENCH_FAST=1 ./bench_wlm_closed_loop)
wlm_bench_json="${repo_root}/build-check-release/bench/BENCH_wlm_closed_loop.json"
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "${wlm_bench_json}" > /dev/null
else
  grep -q '"p99_queueing_s"' "${wlm_bench_json}"
fi
echo "=== bench JSON OK: ${wlm_bench_json} ==="

echo "=== [release] calibration bench smoke (STAGE_BENCH_FAST=1) ==="
(cd "${repo_root}/build-check-release/bench" && \
  STAGE_BENCH_FAST=1 ./bench_calibration)
calib_bench_json="${repo_root}/build-check-release/bench/BENCH_calibration.json"
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "${calib_bench_json}" > /dev/null
else
  grep -q '"calibrated_coverage_better"' "${calib_bench_json}"
fi
# The coverage gate is the §4.8 acceptance bar: post-recalibration 90%
# coverage error must beat pre.
grep -q '"calibrated_coverage_better": true' "${calib_bench_json}"
echo "=== bench JSON OK: ${calib_bench_json} ==="

echo "=== [release] network serving bench smoke (STAGE_BENCH_FAST=1) ==="
(cd "${repo_root}/build-check-release/bench" && \
  STAGE_BENCH_FAST=1 ./bench_net_serve)
net_bench_json="${repo_root}/build-check-release/bench/BENCH_net_serve.json"
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "${net_bench_json}" > /dev/null
else
  grep -q '"qps_speedup"' "${net_bench_json}"
fi
# ROADMAP item 3 acceptance bar: adaptive micro-batching must be >= 2x the
# batching-disabled baseline at equal-or-better p99, 16+ connections.
grep -q '"pass": true' "${net_bench_json}"
echo "=== bench JSON OK: ${net_bench_json} ==="

# Observability gate (also in --fast): the pinned golden routing replay
# must match, and the CLI's Prometheus exposition must actually look like
# one (obs_test validates the renderer structurally; this catches the CLI
# wiring).
echo "=== [release] golden routing replay ==="
"${repo_root}/build-check-release/tests/golden_routing_test"
echo "=== [release] stage_sim stats exposition smoke ==="
stats_out="$("${repo_root}/build-check-release/tools/stage_sim" stats \
  --instances=1 --queries=300 --rounds=20 --members=2 --sync 2>/dev/null)"
grep -q '^# TYPE stage_predictions_total counter$' <<< "${stats_out}"
grep -q '^stage_cache_hits_total ' <<< "${stats_out}"
grep -q '^stage_predict_latency_ns_bucket{stage="cache",le="250"} ' \
  <<< "${stats_out}"
echo "=== stats exposition OK ==="

if [[ "${fast}" -eq 0 ]]; then
  build_and_test asan address
  echo "=== [asan] checkpoint corruption fault-injection suite ==="
  run_filtered "${repo_root}/build-check-asan/tests/ckpt_test" \
    'CorruptionSuite*'
  echo "=== [asan] calibration suite + snapshot fuzz (new ckpt kind) ==="
  "${repo_root}/build-check-asan/tests/calib_test"
  run_filtered "${repo_root}/build-check-asan/tests/snapshot_fuzz_test" \
    'SnapshotFuzzTest.Recalibrator*'
  echo "=== [asan] fleet serving suite ==="
  "${repo_root}/build-check-asan/tests/fleet_serve_test"
  echo "=== [asan] wire-protocol fuzz suite (truncation/bit-flip/length lies) ==="
  "${repo_root}/build-check-asan/tests/net_fuzz_test"
  echo "=== [asan] closed-loop WLM suite ==="
  "${repo_root}/build-check-asan/tests/wlm_test"
  "${repo_root}/build-check-asan/tests/wlm_closed_loop_test"
  build_and_test tsan thread
  # The registry-churn stress test is the fleet's TSan acceptance gate:
  # tenant threads predicting/observing while an evictor parks and
  # reactivates their stacks.
  echo "=== [tsan] fleet serving concurrency gate ==="
  run_filtered "${repo_root}/build-check-tsan/tests/fleet_serve_test" \
    'FleetServiceTest.ConcurrentDisjointTenantsWithEvictorChurn'
  # Readers predicting (lock-free scale loads) while the recalibrator
  # observes completions: the §4.8 concurrency acceptance gate.
  echo "=== [tsan] calibration concurrency gate ==="
  run_filtered "${repo_root}/build-check-tsan/tests/calib_test" \
    'CalibConcurrencyTest.ReadersPredictWhileRecalibratorObserves'
  # Multi-connection blast + graceful shutdown over real sockets: the
  # network edge's TSan acceptance gate (workers, batcher thread, listener
  # and client threads all racing).
  echo "=== [tsan] network serving concurrency gate ==="
  run_filtered "${repo_root}/build-check-tsan/tests/net_test" \
    'NetStressTest.*'
fi

echo "=== all checks passed ==="
