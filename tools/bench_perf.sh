#!/usr/bin/env bash
# Performance baseline: event-kernel microbenchmarks plus one
# end-to-end figure bench, distilled into BENCH_core.json so perf
# regressions show up in review diffs.
#
#   tools/bench_perf.sh [output.json]
#
# Runs (Release build):
#   - bench/micro_components  (google-benchmark, JSON format): the
#     event-kernel pair (timing wheel vs the retired heap kernel) and
#     the MSHR-pattern hash-map pair (FlatMap vs std::unordered_map),
#   - bench/fig07_onchip_offchip --json results/fig07_onchip_offchip.json
#     as the end-to-end smoke (wall time recorded),
#   - the event-kernel micro again from an -DESPNUCA_OBS=OFF build: the
#     disabled observability layer must bench within noise of the
#     compiled-out one ("obs" section, overhead_pct),
#   - bench/micro_protocol (full coherence-engine transactions on the
#     S-NUCA and ESP-NUCA substrates) from the Release build (FSM audit
#     compiled out, must stay within +-2 % of the pre-refactor numbers)
#     and from a -DESPNUCA_AUDIT=ON Release build ("protocol" section;
#     audit_overhead_pct records what compiling the audit in costs),
#   - bench/micro_protocol --ratio --stages: ESP-vs-S-NUCA throughput
#     ratio and the prof.*-based ESP hot-path stage breakdown
#     (probe/replace/ema/helping), merged into the "protocol" section,
#   - the sharded sweep engine: a small fig07 grid as two sequential
#     shards + espnuca-merge (byte-compared against the unsharded
#     document) with the sweep wall-clock recorded, and a cold-vs-warm
#     espnuca-sim checkpoint pair measuring the warmup fast-forward
#     speedup ("sweep" section; the warm restore must be >= 2x).
#
# Perf guard: if the previous BENCH_core.json exists, the new document
# is diffed against it with `espnuca-report --check --threshold 15
# --only protocol.esp_nuca` and the script fails when ESP-NUCA ns/tx
# regresses beyond the threshold. Export ESPNUCA_SKIP_PERF_GUARD=1 to
# accept an intentional regression.
#
# Output schema (BENCH_core.json):
#   { "event_kernel": { "wheel": {events_per_sec, ns_per_event},
#                       "heap_baseline": {...}, "speedup" },
#     "map_churn":    { "flat_map": {...}, "unordered_baseline": {...},
#                       "speedup" },
#     "fig07": { "wall_seconds", "json_path" },
#     "obs": { "obs_on": {...}, "obs_off": {...}, "overhead_pct" },
#     "protocol": { "snuca": {...}, "esp_nuca": {...},
#                   "snuca_audit_on": {...}, "audit_overhead_pct" },
#     "sweep": { "two_shard_fig07_wall_seconds",
#                "warm_restore": { "cold_seconds", "warm_seconds",
#                                  "speedup" } },
#     "loc": { "src_tools_lines" },
#     "directory": { ... },
#     "memory": { ... } }
#
# "loc" counts the .hpp/.cpp lines under src/ and tools/. "directory"
# and "memory" are hand-recorded before/after peak-RSS measurements
# (see DESIGN.md 5.15 and 5.10); the script carries them over from the
# previous document unchanged.
#
# Environment: ESPNUCA_OPS / ESPNUCA_RUNS / ESPNUCA_JOBS thread through
# to fig07 as in every figure bench.
set -euo pipefail

cd "$(dirname "$0")/.."
OUT="${1:-BENCH_core.json}"

cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build build-release -j --target micro_components \
    micro_protocol fig07_onchip_offchip > /dev/null

echo "== bench_perf: micro_components (event kernel + maps) =="
MICRO_JSON=$(mktemp)
./build-release/bench/micro_components \
    --benchmark_filter='EventKernel|MapChurn' \
    --benchmark_repetitions=3 \
    --benchmark_report_aggregates_only=true \
    --benchmark_format=json > "$MICRO_JSON"

echo "== bench_perf: event kernel with ESPNUCA_OBS=OFF =="
cmake -B build-obsoff -S . -DCMAKE_BUILD_TYPE=Release \
    -DESPNUCA_OBS=OFF > /dev/null
cmake --build build-obsoff -j --target micro_components > /dev/null
OBSOFF_JSON=$(mktemp)
./build-obsoff/bench/micro_components \
    --benchmark_filter='EventKernelWheel' \
    --benchmark_repetitions=3 \
    --benchmark_report_aggregates_only=true \
    --benchmark_format=json > "$OBSOFF_JSON"

echo "== bench_perf: micro_protocol (coherence engine, audit off) =="
PROTO_JSON=$(mktemp)
./build-release/bench/micro_protocol \
    --benchmark_repetitions=3 \
    --benchmark_report_aggregates_only=true \
    --benchmark_format=json > "$PROTO_JSON"

echo "== bench_perf: micro_protocol with ESPNUCA_AUDIT=ON =="
cmake -B build-auditon -S . -DCMAKE_BUILD_TYPE=Release \
    -DESPNUCA_AUDIT=ON > /dev/null
cmake --build build-auditon -j --target micro_protocol > /dev/null
AUDITON_JSON=$(mktemp)
./build-auditon/bench/micro_protocol \
    --benchmark_filter='Snuca' \
    --benchmark_repetitions=3 \
    --benchmark_report_aggregates_only=true \
    --benchmark_format=json > "$AUDITON_JSON"

echo "== bench_perf: micro_protocol --ratio --stages =="
BREAKDOWN_JSON=$(mktemp)
./build-release/bench/micro_protocol --ratio --stages \
    --breakdown-json "$BREAKDOWN_JSON"

echo "== bench_perf: fig07_onchip_offchip --json =="
mkdir -p results
FIG07_JSON=results/fig07_onchip_offchip.json
FIG07_START=$(date +%s.%N)
./build-release/bench/fig07_onchip_offchip --json "$FIG07_JSON" \
    > /dev/null
FIG07_END=$(date +%s.%N)

echo "== bench_perf: sharded sweep (2 shards + merge, byte compare) =="
cmake --build build-release -j --target espnuca-sim espnuca-merge \
    espnuca-report > /dev/null
SWEEP_DIR=$(mktemp -d)
sweep_fig07() {
    env ESPNUCA_OPS=8000 ESPNUCA_RUNS=2 ESPNUCA_JOBS=2 \
        ./build-release/bench/fig07_onchip_offchip "$@" > /dev/null
}
SWEEP_START=$(date +%s.%N)
sweep_fig07 --shard 0/2 --results-dir "$SWEEP_DIR/points"
sweep_fig07 --shard 1/2 --results-dir "$SWEEP_DIR/points"
./build-release/tools/espnuca-merge --results-dir "$SWEEP_DIR/points" \
    --out "$SWEEP_DIR/merged.json" > /dev/null
SWEEP_END=$(date +%s.%N)
sweep_fig07 --json "$SWEEP_DIR/unsharded.json"
cmp "$SWEEP_DIR/unsharded.json" "$SWEEP_DIR/merged.json"

echo "== bench_perf: warm-restore fast-forward (cold vs restored) =="
CKPT_DIR=$(mktemp -d)
warm_sim() {
    ./build-release/tools/espnuca-sim --arch esp-nuca \
        --workload apache --ops 200000 --warmup 0.8 \
        --checkpoint "$CKPT_DIR" --json
}
COLD_START=$(date +%s.%N)
warm_sim > "$CKPT_DIR/cold.json"
COLD_END=$(date +%s.%N)
warm_sim > "$CKPT_DIR/warm.json"
WARM_END=$(date +%s.%N)
cmp "$CKPT_DIR/cold.json" "$CKPT_DIR/warm.json"

LOC=$(find src tools \( -name '*.hpp' -o -name '*.cpp' \) -exec cat {} + |
      wc -l)

# The new document lands in a temp file first: the regression guard
# below diffs it against the committed baseline before it replaces it.
NEW_JSON=$(mktemp)
python3 - "$MICRO_JSON" "$NEW_JSON" "$FIG07_JSON" \
    "$FIG07_START" "$FIG07_END" "$OBSOFF_JSON" \
    "$PROTO_JSON" "$AUDITON_JSON" "$BREAKDOWN_JSON" \
    "$SWEEP_START" "$SWEEP_END" "$COLD_START" "$COLD_END" \
    "$WARM_END" "$LOC" "$OUT" <<'PY'
import json, os, sys

(micro_path, out_path, fig07_path, t0, t1, obsoff_path,
 proto_path, auditon_path, breakdown_path,
 sweep_t0, sweep_t1, cold_t0, cold_t1, warm_t1, loc,
 prev_path) = sys.argv[1:17]
with open(micro_path) as f:
    micro = json.load(f)
with open(obsoff_path) as f:
    obsoff = json.load(f)
with open(proto_path) as f:
    proto = json.load(f)
with open(auditon_path) as f:
    auditon = json.load(f)
with open(breakdown_path) as f:
    breakdown = json.load(f)

def mean_metrics(name, doc=None):
    for b in (doc or micro)["benchmarks"]:
        if b["name"] == f"{name}_mean":
            eps = b["items_per_second"]
            return {"events_per_sec": round(eps),
                    "ns_per_event": round(1e9 / eps, 2)}
    raise SystemExit(f"missing benchmark aggregate: {name}_mean")

def tx_metrics(name, doc):
    for b in doc["benchmarks"]:
        if b["name"] == f"{name}_mean":
            tps = b["items_per_second"]
            return {"transactions_per_sec": round(tps),
                    "ns_per_transaction": round(1e9 / tps, 2)}
    raise SystemExit(f"missing benchmark aggregate: {name}_mean")

wheel = mean_metrics("BM_EventKernelWheel")
heap = mean_metrics("BM_EventKernelHeapBaseline")
flat = mean_metrics("BM_FlatMapChurn")
umap = mean_metrics("BM_UnorderedMapChurnBaseline")
wheel_off = mean_metrics("BM_EventKernelWheel", obsoff)
proto_snuca = tx_metrics("BM_ProtocolFsmSnuca", proto)
proto_esp = tx_metrics("BM_ProtocolFsmEspNuca", proto)
proto_audit = tx_metrics("BM_ProtocolFsmSnuca", auditon)

report = {
    "event_kernel": {
        "wheel": wheel,
        "heap_baseline": heap,
        "speedup": round(wheel["events_per_sec"] /
                         heap["events_per_sec"], 2),
    },
    "map_churn": {
        "flat_map": flat,
        "unordered_baseline": umap,
        "speedup": round(flat["events_per_sec"] /
                         umap["events_per_sec"], 2),
    },
    "fig07": {
        "wall_seconds": round(float(t1) - float(t0), 2),
        "json_path": fig07_path,
    },
    # Cost of the compiled-in (but runtime-disabled) observability
    # layer on the event-kernel hot path; must stay within noise.
    "obs": {
        "obs_on": wheel,
        "obs_off": wheel_off,
        "overhead_pct": round(
            100.0 * (wheel_off["events_per_sec"] -
                     wheel["events_per_sec"]) /
            wheel_off["events_per_sec"], 2),
    },
    # Full coherence-engine transactions through the FSM (S-NUCA: the
    # minimal substrate; ESP-NUCA: the full search/helping-block stack),
    # plus the same S-NUCA run with the audit layer compiled in. The
    # Release default compiles the audit out and must bench within
    # +-2 % of the pre-FSM engine; audit_overhead_pct is the price of
    # turning the invariant checks on (debug/ASan builds pay it).
    "protocol": {
        "snuca": proto_snuca,
        "esp_nuca": proto_esp,
        "snuca_audit_on": proto_audit,
        "audit_overhead_pct": round(
            100.0 * (proto_snuca["transactions_per_sec"] -
                     proto_audit["transactions_per_sec"]) /
            proto_snuca["transactions_per_sec"], 2),
        # ESP-vs-S-NUCA throughput ratio and the prof.*-attributed ESP
        # stage costs (--ratio / --stages single-shot runs; noisier than
        # the repetition aggregates above, attribution only).
        "esp_over_snuca": breakdown.get("ratio", {}).get(
            "esp_over_snuca"),
        "esp_stages_ns_per_tx": breakdown.get("stages_ns_per_tx"),
    },
    # Sharded sweep engine: wall clock of the two-shard fig07 sweep
    # (sequential shards + merge; the merged document was byte-compared
    # against the unsharded run above), and the warmup checkpoint
    # fast-forward — a restored run must beat its cold twin by >= 2x.
    "sweep": {
        "two_shard_fig07_wall_seconds": round(
            float(sweep_t1) - float(sweep_t0), 2),
        "warm_restore": {
            "cold_seconds": round(float(cold_t1) - float(cold_t0), 2),
            "warm_seconds": round(float(warm_t1) - float(cold_t1), 2),
            "speedup": round((float(cold_t1) - float(cold_t0)) /
                             max(float(warm_t1) - float(cold_t1),
                                 1e-9), 2),
        },
    },
}

report["loc"] = {"src_tools_lines": int(loc)}
if os.path.exists(prev_path):
    with open(prev_path) as f:
        prev = json.load(f)
    for key in ("directory", "memory"):
        if key in prev:
            report[key] = prev[key]

speedup = report["sweep"]["warm_restore"]["speedup"]
if speedup < 2.0:
    raise SystemExit(f"sweep guard: warm restore only {speedup:.2f}x "
                     "over cold (need >= 2x)")

with open(out_path, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(json.dumps(report, indent=2))
PY

# Regression guard: diff against the committed baseline with
# espnuca-report (missing metrics count as regressions too), scoped to
# the coherence-engine hot path. ESPNUCA_SKIP_PERF_GUARD=1 accepts an
# intentional regression; first runs have no baseline to guard against.
if [ -f "$OUT" ]; then
    if ! ./build-release/tools/espnuca-report \
        --baseline "$OUT" --new "$NEW_JSON" \
        --check --threshold 15 --only protocol.esp_nuca; then
        if [ "${ESPNUCA_SKIP_PERF_GUARD:-}" != "1" ]; then
            echo "perf guard: ESP-NUCA regressed beyond 15 % vs $OUT" \
                "(set ESPNUCA_SKIP_PERF_GUARD=1 to accept)" >&2
            rm -f "$NEW_JSON"
            exit 1
        fi
        echo "perf guard: regression accepted (ESPNUCA_SKIP_PERF_GUARD=1)"
    fi
fi
mv "$NEW_JSON" "$OUT"

rm -f "$MICRO_JSON" "$OBSOFF_JSON" "$PROTO_JSON" "$AUDITON_JSON" \
    "$BREAKDOWN_JSON"
rm -rf "$SWEEP_DIR" "$CKPT_DIR"
echo "== bench_perf: wrote $OUT =="
