#!/usr/bin/env bash
# Guard: observability with tracing disabled must stay within
# INVERDA_OBS_OVERHEAD_PCT percent (default 2) of a no-obs baseline on the
# hot operation benchmarks.
#
# Builds two Release trees — the default (INVERDA_OBS=ON: instrumentation
# compiled in, tracing disabled at runtime) and the baseline
# (-DINVERDA_OBS=OFF: every SpanGuard / ScopedTimer dead-coded) — and runs
# the microbench_ops hot paths in both. The binaries alternate over
# several interleaved rounds (A/B A/B ...) and the per-benchmark minimum
# cpu time across all rounds is compared: the interleaving cancels slow
# machine drift (thermal, noisy neighbours) that would otherwise hit one
# binary's whole run, and min-of-N is the most noise-robust point
# estimate on shared runners. When `taskset` is available every run of
# both binaries is pinned to the same single CPU (the last one this shell
# may use), so neither binary gains from migrating to an idle core.
#
# Two limits: the MEAN overhead across the hot benchmarks must stay under
# INVERDA_OBS_OVERHEAD_PCT (default 2) — single-benchmark min-of-N still
# swings a few percent either way on shared runners, and the mean is the
# noise-robust statistic the acceptance criterion is judged on — and no
# single benchmark may regress more than INVERDA_OBS_OVERHEAD_MAX_PCT
# (default 5), which catches a pathological regression hiding behind a
# good average.
#
# Usage: scripts/obs_overhead.sh [benchmark-filter-regex]
# Env:   INVERDA_OBS_OVERHEAD_PCT      mean overhead limit in percent (default 2)
#        INVERDA_OBS_OVERHEAD_MAX_PCT  per-benchmark limit in percent (default 5)
#        INVERDA_OBS_OVERHEAD_REPS     repetitions per round (default 5)
#        INVERDA_OBS_OVERHEAD_ROUNDS   interleaved rounds (default 10)
set -euo pipefail
cd "$(dirname "$0")/.."

FILTER="${1:-BM_PointGet|BM_Insert}"
THRESHOLD="${INVERDA_OBS_OVERHEAD_PCT:-2}"
MAX_ONE="${INVERDA_OBS_OVERHEAD_MAX_PCT:-5}"
REPS="${INVERDA_OBS_OVERHEAD_REPS:-5}"
ROUNDS="${INVERDA_OBS_OVERHEAD_ROUNDS:-10}"

PIN=()
if command -v taskset >/dev/null 2>&1; then
  # Last CPU of this shell's affinity list ("0-3" or "0,2,5-7" -> 3 / 7).
  CPU=$(taskset -pc $$ | sed 's/.*: //' | tr ',' '\n' | tail -n 1 |
        sed 's/.*-//')
  PIN=(taskset -c "$CPU")
fi

build_tree() {  # <dir> <extra cmake args...>
  local dir="$1"
  shift
  # Ninja only for a tree that is not configured yet: CMake refuses to
  # switch the generator of an existing tree (as in scripts/check.sh).
  local generator=()
  if [[ ! -f "$dir/CMakeCache.txt" ]] && command -v ninja >/dev/null 2>&1; then
    generator=(-G Ninja)
  fi
  cmake -B "$dir" -S . "${generator[@]}" -DCMAKE_BUILD_TYPE=Release "$@" \
    > /dev/null
  # One job per core: a bare -j lets make start an unbounded number.
  cmake --build "$dir" -j "$(nproc)" --target microbench_ops > /dev/null
}

run_csv() {  # <build dir> -> raw benchmark CSV lines
  "${PIN[@]}" "$1"/bench/microbench_ops \
    --benchmark_filter="$FILTER" \
    --benchmark_repetitions="$REPS" \
    --benchmark_report_aggregates_only=false \
    --benchmark_format=csv 2>/dev/null
}

mins_of() {  # stdin: concatenated CSV rounds -> "name min_cpu_ns", sorted
  awk -F, '/^"?BM_/ {
    name = $1; gsub(/"/, "", name);
    sub(/\/repeats:[0-9]+/, "", name);
    if (name ~ /_(mean|median|stddev|cv)$/) next;
    cpu = $4 + 0;
    if (!(name in min) || cpu < min[name]) min[name] = cpu;
  } END { for (n in min) printf "%s %.3f\n", n, min[n]; }' | sort
}

echo "== building default tree (obs compiled in, tracing disabled) =="
build_tree build-obs-on -DINVERDA_OBS=ON
echo "== building no-obs baseline (-DINVERDA_OBS=OFF) =="
build_tree build-obs-off -DINVERDA_OBS=OFF

echo "== measuring (filter: $FILTER, $ROUNDS interleaved rounds x $REPS reps, min cpu${PIN[*]:+, pinned: ${PIN[*]}}) =="
ON_CSV=""
OFF_CSV=""
for ((round = 1; round <= ROUNDS; ++round)); do
  ON_CSV+=$(run_csv build-obs-on)$'\n'
  OFF_CSV+=$(run_csv build-obs-off)$'\n'
done
ON=$(mins_of <<< "$ON_CSV")
OFF=$(mins_of <<< "$OFF_CSV")

paste <(echo "$ON") <(echo "$OFF") | awk -v limit="$THRESHOLD" -v max_one="$MAX_ONE" '
  $1 != $3 { printf "benchmark set mismatch: %s vs %s\n", $1, $3; exit 1 }
  {
    overhead = ($4 > 0) ? ($2 - $4) / $4 * 100 : 0;
    printf "%-40s obs=%10.3f base=%10.3f overhead=%+6.2f%% %s\n",
           $1, $2, $4, overhead, overhead <= max_one ? "ok" : "FAIL";
    if (overhead > max_one) bad = 1;
    sum += overhead; n += 1;
  }
  END {
    mean = (n > 0) ? sum / n : 0;
    printf "mean overhead over %d benchmarks: %+.2f%% (limit %s%%, per-benchmark limit %s%%)\n",
           n, mean, limit, max_one;
    if (mean > limit) bad = 1;
    if (bad) { print "OBS OVERHEAD GUARD FAILED"; exit 1 }
    print "obs overhead guard passed";
  }'
