#!/usr/bin/env bash
# coverage_check.sh — run the test suite with a coverage profile, print the
# total, and fail if the sweep engine (internal/sweep), the container
# substrate (internal/simcg), the event calendar (internal/simclock), the
# substrate contract (internal/substrate), the resource vectors
# (internal/restypes) or the shard server (internal/shard) is under its
# floor.
#
# Usage: scripts/coverage_check.sh [profile-path]
#
# The sweep engine is the concurrency-critical core every figure sweep runs
# through; its unit tests must keep covering panic capture, cancellation,
# memoization, and the merge ordering, so its floor is enforced at 85%.
# The simcg substrate models the failure semantics the mixed-fleet figure
# rests on (resize floors, OOM kills, the shared page-cache pool), so it
# carries the same floor. The simclock calendar queue is the event engine
# every simulated second flows through; its differential/property/fuzz
# tests (diff_test.go) must keep exercising bucket resize, year-wrap jumps
# and feeds, so it carries the same floor. The
# substrate package holds the ordered Table every host and controller keeps
# its instances in, written in place; its fuzz and allocation tests must keep
# covering insert, replace and delete, so it carries the same floor. The
# restypes vectors are the resource arithmetic every allocation, fit test and
# deflation target is computed with; their unit, property and fuzz tests must
# keep covering it before that arithmetic is rewritten, so they carry the
# same floor. The shard package is the federated manager every federated
# deflated process and every in-process federation runs (boot, routing,
# adoption, graceful close); its tests must keep covering adoption's
# refusals and the journal close, so it carries the same floor.
set -euo pipefail
cd "$(dirname "$0")/.."

profile="${1:-coverage.out}"
floor_pct=85.0

go test -short -count=1 -coverprofile="$profile" ./...

total=$(go tool cover -func="$profile" | awk '/^total:/ {print $NF}')
echo "total coverage: ${total}"

# Statement-weighted coverage for each floored package alone: filter the
# profile down to its files and total that.
for pkg in sweep simcg simclock substrate restypes shard; do
  pkg_profile="${profile}.${pkg}"
  { head -1 "$profile"; grep "internal/${pkg}/" "$profile" || true; } > "$pkg_profile"
  pkg_pct=$(go tool cover -func="$pkg_profile" | awk '/^total:/ { sub(/%$/, "", $NF); print $NF }')
  echo "internal/${pkg} coverage: ${pkg_pct}% (floor ${floor_pct}%)"

  awk -v got="$pkg_pct" -v floor="$floor_pct" 'BEGIN { exit !(got+0 >= floor+0) }' || {
    echo "FAIL: internal/${pkg} coverage ${pkg_pct}% is below the ${floor_pct}% floor" >&2
    exit 1
  }
done
