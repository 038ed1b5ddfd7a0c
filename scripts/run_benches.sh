#!/usr/bin/env bash
# Build Release and regenerate the benchmark JSONs:
#   BENCH_graph.json      — dense graph engine vs legacy std::map graph
#   BENCH_query.json      — planner-chosen index scans vs fetch-then-filter
#   BENCH_recovery.json   — snapshot restore vs cold RebuildFromChain
#   BENCH_replication.json — 4-node cluster ingest per consensus engine,
#                           replication overhead/record, catch-up vs lag
#   BENCH_audit.json      — lineage proof size/build/verify by ancestry
#                           depth; continuous auditor vs live ingest
#
# Every BENCH_*.json carries `hardware_threads` and `timestamp_utc`
# (bench/bench_env.h), and each bench drops a metrics snapshot — the
# default obs registry's Prometheus text exposition — next to its JSON as
# BENCH_*.json.metrics.prom.
#
# Usage: scripts/run_benches.sh [record_count]   (default 100000)
set -euo pipefail
source "$(dirname "${BASH_SOURCE[0]}")/lib.sh"

BUILD="$ROOT/build-release"
RECORDS="${1:-100000}"

BENCHES=(bench_graph_scale bench_query_api bench_recovery bench_replication
         bench_audit)

configure_tree "$BUILD" Release \
  -DPROVLEDGER_BUILD_BENCHES=ON \
  -DPROVLEDGER_BUILD_TESTS=OFF \
  -DPROVLEDGER_BUILD_EXAMPLES=OFF
TARGET_ARGS=()
for bench in "${BENCHES[@]}"; do TARGET_ARGS+=(--target "$bench"); done
build_tree "$BUILD" "${TARGET_ARGS[@]}"

# A bench that never ran must not look like a bench that passed with stale
# numbers — require_binary fails loudly on a silently skipped target.
run_bench() {
  local name="$1"; shift
  require_binary "$BUILD/$name"
  "$BUILD/$name" "$@"
}

run_bench bench_graph_scale "$ROOT/BENCH_graph.json" "$RECORDS"
run_bench bench_query_api "$ROOT/BENCH_query.json" "$RECORDS"
run_bench bench_recovery "$ROOT/BENCH_recovery.json" "$RECORDS"
run_bench bench_replication "$ROOT/BENCH_replication.json" "$RECORDS"
# Proof depths go to 1024, so keep at least a few thousand ancestors.
run_bench bench_audit "$ROOT/BENCH_audit.json" "$((RECORDS / 5))"
