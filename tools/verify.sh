#!/usr/bin/env bash
#
# Full verification sweep for the Splitwise simulator.
#
#   tools/verify.sh          tier-1 build + tests, format check,
#                            determinism and digest gates
#   tools/verify.sh --asan   ... plus an ASan/UBSan build + tests (slow)
#   tools/verify.sh --tsan   ... plus a TSan build of the parallel
#                            sweep and HTTP front-end tests, the same
#                            targets as CI's tsan job (slow)
#
# Build trees:
#   build/          default - the tier-1 tree
#   build-asan/     -DSPLITWISE_SANITIZE=address,undefined,float-cast-overflow
#                   (--asan only)
#   build-tsan/     -DSPLITWISE_SANITIZE=thread (--tsan only)

set -euo pipefail
cd "$(dirname "$0")/.."

run_asan=0
run_tsan=0
for arg in "$@"; do
    case "$arg" in
      --asan) run_asan=1 ;;
      --tsan) run_tsan=1 ;;
      *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

step() { printf '\n=== %s ===\n' "$*"; }

step "format check (same gate as CI)"
tools/check_format.sh

step "tier-1: default build"
cmake -B build -S . >/dev/null
cmake --build build -j

step "tier-1: ctest"
ctest --test-dir build --output-on-failure -j "$(nproc)"

step "determinism gate: fig12 sweep --jobs 1 vs --jobs 8"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
build/bench/bench_fig12_design_space --jobs 1 \
    --report-out="$tmpdir/fig12-jobs1.json" >"$tmpdir/fig12-jobs1.log"
build/bench/bench_fig12_design_space --jobs 8 \
    --report-out="$tmpdir/fig12-jobs8.json" >"$tmpdir/fig12-jobs8.log"
cmp "$tmpdir/fig12-jobs1.json" "$tmpdir/fig12-jobs8.json"
cmp "$tmpdir/fig12-jobs1.log" "$tmpdir/fig12-jobs8.log"
echo "per-cell reports and stdout byte-identical across job counts"

step "autoscale gate: acceptance checks + --jobs 1 vs --jobs 8"
build/bench/bench_autoscale --short --jobs 1 \
    --report-out="$tmpdir/autoscale-jobs1.json" >/dev/null
build/bench/bench_autoscale --short --jobs 8 \
    --report-out="$tmpdir/autoscale-jobs8.json" >/dev/null
cmp "$tmpdir/autoscale-jobs1.json" "$tmpdir/autoscale-jobs8.json"
echo "autoscale reports byte-identical across job counts"

step "digest gate: perfbench workloads match tools/perfbench_digests.txt"
tools/check_perfbench_digests.sh

step "DST smoke: bench_dst --short (fuzz + invariant checker)"
build/bench/bench_dst --short --jobs 4
step "DST smoke with span tracking forced on (span-balance in every scenario)"
build/bench/bench_dst --short --spans on --jobs 4

step "telemetry smoke: bench_chaos with trace + timeseries"
build/bench/bench_chaos \
    --trace-out="$tmpdir/trace.json" \
    --timeseries-out="$tmpdir/ts.csv" >/dev/null
test -s "$tmpdir/trace.json"
test -s "$tmpdir/ts.csv"
echo "bench_chaos telemetry self-checks passed"

if [ "$run_asan" -eq 1 ]; then
    step "ASan/UBSan build (slow)"
    cmake -B build-asan -S . \
        -DSPLITWISE_SANITIZE=address,undefined,float-cast-overflow \
        >/dev/null
    cmake --build build-asan -j

    step "ASan/UBSan ctest"
    ctest --test-dir build-asan --output-on-failure -j "$(nproc)"
fi

if [ "$run_tsan" -eq 1 ]; then
    step "TSan build: parallel sweep and HTTP targets (slow)"
    cmake -B build-tsan -S . -DSPLITWISE_SANITIZE=thread >/dev/null
    cmake --build build-tsan -j \
        --target run_pool_test determinism_test provisioner_test \
        ingress_threads_test http_server_test

    step "TSan ctest (parallel sweep tests)"
    ctest --test-dir build-tsan --output-on-failure \
        -R 'run_pool_test|determinism_test|provisioner_test|ingress_threads_test'

    step "TSan ctest (HTTP front-end, repeated to catch start-up races)"
    ctest --test-dir build-tsan --output-on-failure \
        -R 'http_server_test' --repeat until-fail:20
fi

step "verify: all green"
