#!/usr/bin/env bash
#
# Pin the simulated outcome of the perfbench workloads: run each
# offline workload for seed 1 and diff its `digest` line (events,
# iterations, KV transfers, prefix hits, TTFT/TBT p99, ...) against
# tools/perfbench_digests.txt. The digests are exact for a seed, so
# any change to them must be deliberate: regenerate the file and say
# why in CHANGES.md.
#
#   tools/check_perfbench_digests.sh            check
#   tools/check_perfbench_digests.sh --update   rewrite the pinned file

set -euo pipefail
cd "$(dirname "$0")/.."

expected=tools/perfbench_digests.txt
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
actual="$tmpdir/digests.txt"
: >"$actual"

for workload in fleet_2k chat_prefix_100 design_sweep; do
    if ! python3 perfbench/run.py --workload "$workload" --seed 1 \
        --seconds 1 >"$tmpdir/out.txt" 2>"$tmpdir/err.txt"; then
        cat "$tmpdir/err.txt" >&2
        echo "perfbench run failed: $workload" >&2
        exit 1
    fi
    grep '^digest' "$tmpdir/out.txt" >>"$actual"
done

if [ "${1:-}" = "--update" ]; then
    cp "$actual" "$expected"
    echo "rewrote $expected"
    exit 0
fi
diff -u "$expected" "$actual"
echo "perfbench digests match $expected"
