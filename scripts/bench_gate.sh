#!/bin/sh
# bench_gate.sh — regression gates for the serving-layer benchmarks.
#
# Two gates over the same fresh run vs the committed BENCH_serve.json:
#
#   counters  HARD.  The per-record counter deltas (solver nodes, LP
#             pivots, cache hits, health checks, ...) are deterministic by
#             construction — fixed seeds, fixed iteration counts, no
#             background ticker — so any drift is a behaviour change,
#             not noise. Every baseline counter must match the fresh
#             value exactly, and a fresh counter absent from the
#             baseline fails too (new work on a hot path should be a
#             deliberate baseline update).
#
#   timings   WARN-ONLY.  ns_per_iter and latency percentiles compared
#             by ratio. Timings on shared CI hardware are noisy, so a
#             fresh value more than TOLERANCE times its baseline only
#             warns — the printout catches order-of-magnitude
#             regressions (a dropped cache, an accidental O(n^2)), a
#             human decides.
#
# A third gate needs no baseline at all:
#
#   profile-overhead  HARD.  Compares the two cache-hit records *within*
#             the fresh run — "serve cache hit n=12" vs its twin
#             measured with the 99 Hz CPU profiler armed. Both loops run
#             seconds apart on the same hardware, so the comparison
#             survives slow shared runners. Fails when the profiled
#             exact p50 exceeds base_p50 * (1 + PROFILE_TOLERANCE_PCT%)
#             + PROFILE_SLACK_US (absolute slack absorbs timer
#             granularity on a ~100 us loop).
#
# Usage:  scripts/bench_gate.sh [--counters|--timings|--profile-overhead|--all] [baseline.json]
#   TOLERANCE=3.0   ratio above which a timing warns (default 3.0)
#   PROFILE_TOLERANCE_PCT=3  profiled-p50 overhead bound in percent
#   PROFILE_SLACK_US=5       absolute slack added to the bound
#   SKIP_RUN=1      compare an existing $BENCH_SERVE_OUT instead of
#                   re-running the harness
set -eu

cd "$(dirname "$0")/.."

MODE=all
case "${1:-}" in
  --counters) MODE=counters; shift ;;
  --timings)  MODE=timings;  shift ;;
  --profile-overhead) MODE=profile; shift ;;
  --all)      MODE=all;      shift ;;
esac

BASELINE="${1:-BENCH_serve.json}"
TOLERANCE="${TOLERANCE:-3.0}"
FRESH="${BENCH_SERVE_OUT:-$(mktemp /tmp/bench_serve.XXXXXX.json)}"

if [ "$MODE" != "profile" ]; then
  [ -f "$BASELINE" ] || { echo "bench_gate: baseline $BASELINE not found" >&2; exit 2; }
fi

if [ "${SKIP_RUN:-0}" != "1" ]; then
  echo "bench_gate: running bench harness (BENCH_SERVE_OUT=$FRESH)"
  BENCH_SERVE_OUT="$FRESH" dune exec bench/main.exe >/dev/null
fi

[ -f "$FRESH" ] || { echo "bench_gate: fresh results $FRESH not found" >&2; exit 2; }

# Flatten one records file into "name<TAB>metric<TAB>value" timing lines.
# The JSON is the flat shape Obs.Expo.bench_records_json writes: one
# record object per line, numeric fields only where we look.
flatten_timings() {
  awk '
    /"name":/ {
      line = $0
      name = line; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
      npi = line
      if (sub(/.*"ns_per_iter": /, "", npi)) {
        sub(/[,}].*/, "", npi)
        printf "%s\tns_per_iter\t%s\n", name, npi
      }
      if (match(line, /"percentiles": \{[^}]*\}/)) {
        ps = substr(line, RSTART, RLENGTH)
        sub(/.*\{/, "", ps); sub(/\}.*/, "", ps)
        n = split(ps, kv, /, /)
        for (i = 1; i <= n; i++) {
          split(kv[i], pair, /": /)
          key = pair[1]; gsub(/.*"/, "", key)
          printf "%s\t%s\t%s\n", name, key, pair[2]
        }
      }
    }
  ' "$1"
}

# Flatten counter deltas into the same "name<TAB>counter<TAB>value" shape.
flatten_counters() {
  awk '
    /"name":/ {
      line = $0
      name = line; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
      if (match(line, /"counters": \{[^}]*\}/)) {
        cs = substr(line, RSTART, RLENGTH)
        sub(/.*\{/, "", cs); sub(/\}.*/, "", cs)
        if (cs != "") {
          n = split(cs, kv, /, /)
          for (i = 1; i <= n; i++) {
            split(kv[i], pair, /": /)
            key = pair[1]; gsub(/.*"/, "", key)
            printf "%s\t%s\t%s\n", name, key, pair[2]
          }
        }
      }
    }
  ' "$1"
}

base_flat=$(mktemp /tmp/bench_gate_base.XXXXXX)
fresh_flat=$(mktemp /tmp/bench_gate_fresh.XXXXXX)
trap 'rm -f "$base_flat" "$fresh_flat"' EXIT

overall=0

# --- counter gate (hard) ----------------------------------------------------
if [ "$MODE" = "counters" ] || [ "$MODE" = "all" ]; then
  flatten_counters "$BASELINE" > "$base_flat"
  flatten_counters "$FRESH" > "$fresh_flat"
  fail=0
  while IFS="$(printf '\t')" read -r name metric base; do
    fresh=$(awk -F'\t' -v n="$name" -v m="$metric" \
              '$1 == n && $2 == m { print $3 }' "$fresh_flat")
    if [ -z "$fresh" ]; then
      echo "bench_gate: FAIL $name / $metric: baseline $base, missing from fresh run"
      fail=1
    elif [ "$fresh" != "$base" ]; then
      echo "bench_gate: FAIL $name / $metric: baseline $base, fresh $fresh (counter drift)"
      fail=1
    else
      echo "bench_gate: ok   $name / $metric: $base"
    fi
  done < "$base_flat"
  while IFS="$(printf '\t')" read -r name metric fresh; do
    base=$(awk -F'\t' -v n="$name" -v m="$metric" \
             '$1 == n && $2 == m { print $3 }' "$base_flat")
    if [ -z "$base" ]; then
      echo "bench_gate: FAIL $name / $metric: fresh $fresh, not in baseline (new counter on a hot path)"
      fail=1
    fi
  done < "$fresh_flat"
  if [ "$fail" != "0" ]; then
    echo "bench_gate: counters FAILED (exact match vs $BASELINE required)"
    overall=1
  else
    echo "bench_gate: counters OK (exact match vs $BASELINE)"
  fi
fi

# --- profiler overhead gate (hard, within the fresh run) --------------------
if [ "$MODE" = "profile" ] || [ "$MODE" = "all" ]; then
  PROFILE_TOLERANCE_PCT="${PROFILE_TOLERANCE_PCT:-3}"
  PROFILE_SLACK_US="${PROFILE_SLACK_US:-5}"
  flatten_timings "$FRESH" > "$fresh_flat"
  base_p50=$(awk -F'\t' '$1 == "serve cache hit n=12" && $2 == "p50_us" { print $3 }' "$fresh_flat")
  prof_p50=$(awk -F'\t' '$1 == "serve cache hit n=12 profiled 99hz" && $2 == "p50_us" { print $3 }' "$fresh_flat")
  if [ -z "$base_p50" ] || [ -z "$prof_p50" ]; then
    echo "bench_gate: FAIL profile overhead: cache-hit p50 records missing from fresh run"
    overall=1
  else
    verdict=$(awk -v b="$base_p50" -v p="$prof_p50" \
                  -v tol="$PROFILE_TOLERANCE_PCT" -v slack="$PROFILE_SLACK_US" 'BEGIN {
      bound = b * (1 + tol / 100.0) + slack
      printf "%s %.1f %.1f", (p <= bound ? "ok" : "FAIL"), bound, 100 * (p - b) / b
    }')
    status=${verdict%% *}
    rest=${verdict#* }
    bound=${rest%% *}
    pct=${rest#* }
    printf 'bench_gate: %-4s profile overhead: p50 %s us -> %s us (%s%%, bound %s us)\n' \
      "$status" "$base_p50" "$prof_p50" "$pct" "$bound"
    if [ "$status" = "FAIL" ]; then
      echo "bench_gate: profile overhead FAILED (99 Hz CPU engine must cost <= ${PROFILE_TOLERANCE_PCT}% p50 + ${PROFILE_SLACK_US} us)"
      overall=1
    else
      echo "bench_gate: profile overhead OK (within ${PROFILE_TOLERANCE_PCT}% + ${PROFILE_SLACK_US} us)"
    fi
  fi
fi

# --- timing gate (warn-only) ------------------------------------------------
if [ "$MODE" = "timings" ] || [ "$MODE" = "all" ]; then
  flatten_timings "$BASELINE" > "$base_flat"
  flatten_timings "$FRESH" > "$fresh_flat"
  warn=0
  while IFS="$(printf '\t')" read -r name metric base; do
    fresh=$(awk -F'\t' -v n="$name" -v m="$metric" \
              '$1 == n && $2 == m { print $3 }' "$fresh_flat")
    if [ -z "$fresh" ]; then
      echo "bench_gate: WARN $name / $metric (in baseline, not in fresh run)"
      warn=1
      continue
    fi
    verdict=$(awk -v b="$base" -v f="$fresh" -v tol="$TOLERANCE" 'BEGIN {
      if (b <= 0) { print "ok skip"; exit }
      r = f / b
      printf "%s %.2f", (r > tol ? "WARN" : "ok"), r
    }')
    status=${verdict%% *}
    ratio=${verdict#* }
    printf 'bench_gate: %-4s %s / %s: baseline %s, fresh %s (x%s)\n' \
      "$status" "$name" "$metric" "$base" "$fresh" "$ratio"
    [ "$status" = "WARN" ] && warn=1
  done < "$base_flat"
  if [ "$warn" != "0" ]; then
    echo "bench_gate: timings have WARNINGS (tolerance x$TOLERANCE vs $BASELINE) — not failing"
  else
    echo "bench_gate: timings OK (all within x$TOLERANCE of $BASELINE)"
  fi
fi

exit $overall
