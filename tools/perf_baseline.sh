#!/usr/bin/env bash
# Measure the event-engine perf baseline and emit BENCH_PR5.json.
#
# Runs each probe RUNS times (default 5) and reports the median:
#   - bench_events          events/sec, new vs embedded legacy queue
#   - bench_dst --short     scenarios/sec through the DST harness
#   - bench_fig12 --jobs 1  end-to-end design-space sweep wall-clock
#   - span-tracking overhead, two probes:
#       sweep: bench_fig12 --spans on vs off — production-shaped
#           (dozens of full cluster runs, the tracker amortizes);
#           the perf-smoke job gates this ratio at 1.05.
#       dst: bench_dst, 2000 fixed seeds (--short caps at 24, too
#           little signal) + peak RSS both sides — recorded as a
#           diagnostic only: 2000 fresh micro-sims re-pay tracker
#           setup per scenario and the span-balance invariant sweep
#           is a DST-only cost, so this ratio overstates tracing.
#       Both use the min over interleaved off/on pairs: wall minima
#       are the standard noise-robust statistic on shared hosts.
#
# Usage: tools/perf_baseline.sh [BUILD_DIR] [OUT_JSON]
#   BUILD_DIR defaults to ./build, OUT_JSON to ./BENCH_PR5.json.
#   RUNS=N overrides the repetition count (min 5 for the committed
#   baseline; CI may lower it for the smoke gate).
#
# Scale trajectory (PR 8):
#
#   tools/perf_baseline.sh scale [BUILD_DIR] [OUT_JSON]
#
# sweeps bench_scale over requests x machines shapes (one process per
# shape, so each peak_rss_kb is a true per-shape high-water mark),
# runs the naive materialized baseline at the headline 10^6 x 2000
# shape, and emits BENCH_PR8.json — the committed numbers CI's
# scale-smoke step gates against. The streamed 10^6 x 2000 run is
# budget-enforced (--budget-mb) so the O(in-flight) memory contract
# fails loudly here, not just in DST.
set -euo pipefail

SUBCOMMAND=""
if [[ "${1:-}" == "scale" ]]; then
    SUBCOMMAND="scale"
    shift
fi

BUILD_DIR="${1:-build}"
OUT_JSON="${2:-BENCH_PR5.json}"
BENCH="$BUILD_DIR/bench"

# median FILE -> median of one number per line
median() {
    sort -n "$1" | awk '{a[NR]=$1} END {
        if (NR == 0) exit 1;
        if (NR % 2) print a[(NR+1)/2];
        else printf "%.6f\n", (a[NR/2] + a[NR/2+1]) / 2 }'
}

# --- scale subcommand: bench_scale sweep -> BENCH_PR8.json -----------
if [[ "$SUBCOMMAND" == "scale" ]]; then
    [[ "$OUT_JSON" == "BENCH_PR5.json" ]] && OUT_JSON="BENCH_PR8.json"
    RUNS="${RUNS:-3}"
    SCALE_BUDGET_MB=150
    if [[ ! -x "$BENCH/bench_scale" ]]; then
        echo "perf_baseline: missing $BENCH/bench_scale (build first)" >&2
        exit 1
    fi
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT

    # run_scale_shape MODE REQUESTS MACHINES PREFIX [EXTRA...]
    # One process per invocation: peak_rss_kb is a per-shape number.
    run_scale_shape() {
        local mode="$1" requests="$2" machines="$3" prefix="$4"
        shift 4
        "$BENCH/bench_scale" --mode="$mode" --requests="$requests" \
            --machines="$machines" "$@" > "$tmp/$prefix.out"
        awk '/^SCALE_BENCH/ {
            for (f = 1; f <= NF; ++f) {
                if ($f ~ /^requests_per_sec=/)
                    print substr($f, 18) >> ("'"$tmp"'/'"$prefix"'.rps")
                if ($f ~ /^events_per_sec=/)
                    print substr($f, 16) >> ("'"$tmp"'/'"$prefix"'.eps")
                if ($f ~ /^peak_rss_kb=/)
                    print substr($f, 13) >> ("'"$tmp"'/'"$prefix"'.rss")
                if ($f ~ /^live_slot_high_water=/)
                    print substr($f, 22) >> ("'"$tmp"'/'"$prefix"'.hw")
            }
        }' "$tmp/$prefix.out"
    }

    # shape_json PREFIX MODE REQUESTS MACHINES -> one JSON object
    shape_json() {
        local prefix="$1" mode="$2" requests="$3" machines="$4"
        printf '{"mode": "%s", "requests": %s, "machines": %s, ' \
            "$mode" "$requests" "$machines"
        printf '"requests_per_sec": %s, "events_per_sec": %s, ' \
            "$(median "$tmp/$prefix.rps")" "$(median "$tmp/$prefix.eps")"
        printf '"peak_rss_kb": %s, "live_slot_high_water": %s}' \
            "$(median "$tmp/$prefix.rss")" "$(median "$tmp/$prefix.hw")"
    }

    echo "perf_baseline scale: $RUNS runs per shape" >&2
    STREAMED_SHAPES="100000:100 1000000:100 100000:2000 1000000:2000"
    for i in $(seq 1 "$RUNS"); do
        # The CI smoke shape, both modes: the smoke gate compares the
        # streamed/materialized throughput ratio (host-independent)
        # rather than absolute requests/sec from whatever machine
        # produced this baseline.
        run_scale_shape streamed 50000 100 short
        run_scale_shape materialized 50000 100 short_mat
        for shape in $STREAMED_SHAPES; do
            requests="${shape%%:*}"; machines="${shape##*:}"
            budget=()
            if [[ "$shape" == "1000000:2000" ]]; then
                budget=(--budget-mb="$SCALE_BUDGET_MB")
            fi
            run_scale_shape streamed "$requests" "$machines" \
                "s_${requests}_${machines}" "${budget[@]}"
            echo "  streamed ${requests}x${machines} run $i done" >&2
        done
        # Naive materialized baseline at the headline shape only: it
        # exists to price the memory the streaming path saves.
        run_scale_shape materialized 1000000 2000 m_1000000_2000
        echo "  materialized 1000000x2000 run $i done" >&2
    done

    streamed_rss="$(median "$tmp/s_1000000_2000.rss")"
    materialized_rss="$(median "$tmp/m_1000000_2000.rss")"
    rss_reduction="$(python3 -c \
        "print(f'{$materialized_rss / $streamed_rss:.2f}')")"
    short_ratio="$(python3 -c \
        "print(f'{$(median "$tmp/short.rps") / $(median "$tmp/short_mat.rps"):.3f}')")"

    {
        printf '{\n'
        printf '  "runs": %s,\n' "$RUNS"
        printf '  "statistic": "median",\n'
        printf '  "budget_mb": %s,\n' "$SCALE_BUDGET_MB"
        printf '  "short": %s,\n' "$(shape_json short streamed 50000 100)"
        printf '  "short_materialized": %s,\n' \
            "$(shape_json short_mat materialized 50000 100)"
        printf '  "short_throughput_ratio": %s,\n' "$short_ratio"
        printf '  "streamed": {\n'
        sep=""
        for shape in $STREAMED_SHAPES; do
            requests="${shape%%:*}"; machines="${shape##*:}"
            printf '%s    "r%s_m%s": %s' "$sep" "$requests" "$machines" \
                "$(shape_json "s_${requests}_${machines}" streamed \
                       "$requests" "$machines")"
            sep=$',\n'
        done
        printf '\n  },\n'
        printf '  "materialized": {\n    "r1000000_m2000": %s\n  },\n' \
            "$(shape_json m_1000000_2000 materialized 1000000 2000)"
        printf '  "rss_reduction_1m_2000": %s\n' "$rss_reduction"
        printf '}\n'
    } > "$OUT_JSON"

    echo "perf_baseline scale: wrote $OUT_JSON" >&2
    cat "$OUT_JSON"
    exit 0
fi

for bin in bench_events bench_dst bench_fig12_design_space; do
    if [[ ! -x "$BENCH/$bin" ]]; then
        echo "perf_baseline: missing $BENCH/$bin (build first)" >&2
        exit 1
    fi
done

# minval FILE -> smallest of one number per line
minval() {
    sort -n "$1" | head -1
}

now_s() { python3 -c 'import time; print(f"{time.monotonic():.6f}")'; }

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

RUNS="${RUNS:-5}"
echo "perf_baseline: $RUNS runs per probe" >&2

# --- bench_events: events/sec per (impl, workload) -------------------
# Full-length runs: the --short shape is noise-dominated (tens of
# milliseconds per workload), which makes the CI regression gate
# flaky.
for i in $(seq 1 "$RUNS"); do
    "$BENCH/bench_events" > "$tmp/events.$i.txt"
    awk '/^EVENTS_BENCH/ {
        impl=""; wl=""; rate="";
        for (f = 1; f <= NF; ++f) {
            if ($f ~ /^impl=/) { impl = substr($f, 6) }
            if ($f ~ /^workload=/) { wl = substr($f, 10) }
            if ($f ~ /^events_per_sec=/) { rate = substr($f, 16) }
        }
        print rate >> ("'"$tmp"'/rate." impl "." wl ".txt")
    }' "$tmp/events.$i.txt"
    echo "  bench_events run $i done" >&2
done

# --- bench_dst --short: scenarios/sec --------------------------------
DST_SEEDS=200
for i in $(seq 1 "$RUNS"); do
    t0="$(now_s)"
    "$BENCH/bench_dst" --seeds="$DST_SEEDS" --jobs 1 > /dev/null
    t1="$(now_s)"
    python3 -c "print(f'{$DST_SEEDS / ($t1 - $t0):.3f}')" \
        >> "$tmp/dst_rate.txt"
    python3 -c "print(f'{$t1 - $t0:.6f}')" >> "$tmp/dst_wall.txt"
    echo "  bench_dst run $i done" >&2
done

# --- span tracking: overhead + peak RSS --------------------------------
# Interleaved off/on pairs so host noise lands on both sides equally.
# Peak RSS comes from GNU time -v when present, else a python3 rusage
# fallback.
SPAN_SEEDS=2000
measure_spans() {
    # $1 = bench binary, $2 = --spans value, $3 = output prefix,
    # $4.. = extra args; appends wall seconds to $3.wall and peak RSS
    # (KiB) to $3.rss.
    local bin="$1" spans="$2" prefix="$3"
    shift 3
    if [[ -x /usr/bin/time ]]; then
        local t0 t1 rss
        t0="$(now_s)"
        rss="$(/usr/bin/time -v "$bin" --jobs 1 --spans "$spans" "$@" \
            2>&1 >/dev/null |
            awk '/Maximum resident set size/ {print $NF}')"
        t1="$(now_s)"
        python3 -c "print(f'{$t1 - $t0:.6f}')" >> "$prefix.wall"
        echo "${rss:-0}" >> "$prefix.rss"
    else
        python3 - "$bin" "$spans" "$@" \
            >> "$prefix.wall" 2>> "$prefix.rss" <<'PYEOF'
import resource, subprocess, sys, time
bin, spans = sys.argv[1], sys.argv[2]
t0 = time.monotonic()
subprocess.run([bin, "--jobs", "1", "--spans", spans] + sys.argv[3:],
               stdout=subprocess.DEVNULL, check=True)
wall = time.monotonic() - t0
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(f"{wall:.6f}")
print(rss, file=sys.stderr)
PYEOF
    fi
}

# The gated sweep probe is cheap (~0.25 s/run), so it gets extra
# pairs: the min over few pairs still carries host noise.
SWEEP_PAIRS=$((RUNS > 8 ? RUNS : 8))
for i in $(seq 1 "$SWEEP_PAIRS"); do
    measure_spans "$BENCH/bench_fig12_design_space" off "$tmp/sweep_off"
    measure_spans "$BENCH/bench_fig12_design_space" on "$tmp/sweep_on"
done
echo "  sweep span-overhead pairs done" >&2
for i in $(seq 1 "$RUNS"); do
    measure_spans "$BENCH/bench_dst" off "$tmp/spans_off" \
        --seeds="$SPAN_SEEDS"
    measure_spans "$BENCH/bench_dst" on "$tmp/spans_on" \
        --seeds="$SPAN_SEEDS"
    echo "  dst span-overhead pair $i done" >&2
done

# --- bench_fig12 --jobs 1: end-to-end sweep wall-clock ---------------
for i in $(seq 1 "$RUNS"); do
    t0="$(now_s)"
    "$BENCH/bench_fig12_design_space" --jobs 1 > /dev/null
    t1="$(now_s)"
    python3 -c "print(f'{$t1 - $t0:.6f}')" >> "$tmp/fig12_wall.txt"
    echo "  bench_fig12 run $i done" >&2
done

events_new_churn="$(median "$tmp/rate.new.churn.txt")"
events_legacy_churn="$(median "$tmp/rate.legacy.churn.txt")"
events_new_ring="$(median "$tmp/rate.new.ring.txt")"
events_legacy_ring="$(median "$tmp/rate.legacy.ring.txt")"
events_new_large="$(median "$tmp/rate.new.large.txt")"
events_legacy_large="$(median "$tmp/rate.legacy.large.txt")"
dst_rate="$(median "$tmp/dst_rate.txt")"
dst_wall="$(median "$tmp/dst_wall.txt")"
fig12_wall="$(median "$tmp/fig12_wall.txt")"
sweep_off_wall="$(minval "$tmp/sweep_off.wall")"
sweep_on_wall="$(minval "$tmp/sweep_on.wall")"
sweep_overhead="$(python3 -c \
    "print(f'{$sweep_on_wall / $sweep_off_wall:.4f}')")"
spans_off_wall="$(minval "$tmp/spans_off.wall")"
spans_on_wall="$(minval "$tmp/spans_on.wall")"
spans_off_rss="$(median "$tmp/spans_off.rss")"
spans_on_rss="$(median "$tmp/spans_on.rss")"
spans_overhead="$(python3 -c \
    "print(f'{$spans_on_wall / $spans_off_wall:.4f}')")"

churn_ratio="$(python3 -c \
    "print(f'{$events_new_churn / $events_legacy_churn:.3f}')")"

cat > "$OUT_JSON" <<EOF
{
  "runs": $RUNS,
  "statistic": "median",
  "events_per_sec": {
    "churn": {"new": $events_new_churn, "legacy": $events_legacy_churn},
    "ring": {"new": $events_new_ring, "legacy": $events_legacy_ring},
    "large": {"new": $events_new_large, "legacy": $events_legacy_large}
  },
  "churn_speedup": $churn_ratio,
  "dst": {
    "seeds": $DST_SEEDS,
    "jobs": 1,
    "scenarios_per_sec": $dst_rate,
    "p50_wall_s": $dst_wall
  },
  "fig12_sweep": {
    "jobs": 1,
    "p50_wall_s": $fig12_wall
  },
  "span_tracking": {
    "sweep": {
      "off_min_wall_s": $sweep_off_wall,
      "on_min_wall_s": $sweep_on_wall,
      "overhead_ratio": $sweep_overhead
    },
    "dst": {
      "seeds": $SPAN_SEEDS,
      "off": {"min_wall_s": $spans_off_wall, "p50_peak_rss_kb": $spans_off_rss},
      "on": {"min_wall_s": $spans_on_wall, "p50_peak_rss_kb": $spans_on_rss},
      "overhead_ratio": $spans_overhead
    }
  }
}
EOF

echo "perf_baseline: wrote $OUT_JSON" >&2
cat "$OUT_JSON"
