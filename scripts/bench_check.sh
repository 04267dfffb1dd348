#!/usr/bin/env bash
# bench_check.sh — run the BenchmarkSimCore suite and fail when a metric
# exceeds BENCH_MAX_REGRESS times its committed BENCH_PR10.json baseline.
#
# Usage: scripts/bench_check.sh [baseline-json]
#
# The suite tracks the simulator core rebuilt in PR 10: the calendar-queue
# event engine (ns/op, allocs/op under the hold model), the indexed
# placement path on a 1000-node fleet (ns/op), and the end-to-end
# simulation cell (ns/event, allocs/event).
# Each measured metric must stay within BENCH_MAX_REGRESS times its baseline
# (default 1.25, i.e. +25%; CI runs 2.0, i.e. +100%); alloc metrics get +0.5
# absolute slack so zero-alloc floors remain enforceable. allocs/op and
# allocs/event are hardware-independent and catch rot anywhere; the ns gates
# assume hardware comparable to the recorded host — on slower machines raise
# BENCH_MAX_REGRESS rather than loosening the committed baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline="${1:-BENCH_PR10.json}"
max_regress="${BENCH_MAX_REGRESS:-1.25}"
bench_time="${BENCH_TIME:-2s}"

out=$(go test -run '^$' -bench 'BenchmarkSimCore' -benchtime "$bench_time" -count=1 .)
echo "$out"
echo

echo "$out" | awk -v baseline="$baseline" -v max="$max_regress" '
  /^BenchmarkSimCore/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    for (i = 3; i <= NF; i++) {
      if ($i == "ns/op")        got[name ".ns_per_op"] = $(i-1)
      if ($i == "allocs/op")    got[name ".allocs_per_op"] = $(i-1)
      if ($i == "ns/event")     got[name ".ns_per_event"] = $(i-1)
      if ($i == "allocs/event") got[name ".allocs_per_event"] = $(i-1)
    }
  }
  END {
    # Pull the flat "Benchmark...metric": value pairs out of the baseline
    # section of the committed JSON (pre_refactor is informational only).
    inbase = 0
    while ((getline line < baseline) > 0) {
      if (line ~ /"baseline"/) { inbase = 1; continue }
      if (!inbase) continue
      if (line ~ /}/) break
      gsub(/[",]/, "", line)
      n = split(line, kv, ":")
      if (n < 2) continue
      key = kv[1]; gsub(/^[ \t]+|[ \t]+$/, "", key)
      if (key !~ /\./) continue
      base[key] = kv[2] + 0
    }
    if (length(base) == 0) { printf "bench_check: no baseline metrics read from %s\n", baseline; exit 1 }
    fail = 0
    for (k in base) {
      if (!(k in got)) { printf "%-52s MISSING from benchmark output\n", k; fail = 1; continue }
      limit = base[k] * max
      if (k ~ /allocs/) limit += 0.5
      ok = (got[k] + 0 <= limit)
      printf "%-52s base %11.1f  got %11.1f  limit %11.1f  %s\n", k, base[k], got[k], limit, ok ? "ok" : "REGRESSION"
      if (!ok) fail = 1
    }
    exit fail
  }'
