#!/usr/bin/env bash
# Runs the microbenchmark suite and writes the JSON artefacts the PR
# workflow tracks:
#   BENCH_dataplane.json  - micro_dataplane (packet fan-out fast path)
#   BENCH_brain.json      - micro_path_decision + micro_routing merged
#   BENCH_telemetry.json  - micro_telemetry (registry + trace ring +
#                           fan-out at 0% / 1% / 100% sampling)
# All land at the repository root (override with BENCH_OUT_DIR).
#
# Usage: bench/run_benches.sh [build-dir]   (default: ./build-bench)
#
# The bench build is configured here with CMAKE_BUILD_TYPE=Release so
# the numbers are optimized-build numbers regardless of how the default
# build tree was configured. (The "library_build_type": "debug" field
# google-benchmark emits reflects how the *system libbenchmark* package
# was compiled — Debian ships it without NDEBUG — not our code.)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build-bench}"
out_dir="${BENCH_OUT_DIR:-${repo_root}}"
min_time="${BENCH_MIN_TIME:-0.2}"
asan_dir="${BENCH_ASAN_DIR:-${repo_root}/build-asan}"

# ------------------------------------------------------------- verify step
# Before trusting the numbers, prove the code they measure is sound:
# an AddressSanitizer smoke of the chaos tests (node crash mid-burst /
# mid-lookup, stream release with lookups in flight) plus the data-plane
# chain smoke (bench_smoke_dataplane_chain: BM_EndToEndForward, the
# per-packet delivery + pacer path on a saturated 600-node chain). A
# dangling linger/report/retry event touching freed engine state dies
# loudly here long before it would skew a benchmark. Skip with
# BENCH_SKIP_ASAN=1.
#
# repro_recovery rides along (bench_smoke_recovery): the loss-recovery
# tier exercises FEC group state, the GoP caches of standby suppliers,
# and NACK redirection across supplier pipelines under sustained link
# degradation — exactly the churny shared-state code ASan should walk.
#
# repro_svc rides along too (bench_smoke_svc): the SVC tier drives
# per-viewer mask flips under the same chaos, walking the append-time
# layer filter, the chained prev_link_seq vouchers, sparse FEC groups,
# and the NackVoid answer path — all of it bookkeeping over shared
# per-link state that ASan should see churn.
if [[ "${BENCH_SKIP_ASAN:-0}" != "1" ]]; then
  cmake -B "${asan_dir}" -S "${repo_root}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=address -fno-omit-frame-pointer" \
      -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address" >&2
  cmake --build "${asan_dir}" -j \
      --target test_node_failure test_stream_context micro_dataplane \
               repro_recovery repro_svc >&2
  (cd "${asan_dir}" && ctest --output-on-failure \
      -R 'test_node_failure|test_stream_context|bench_smoke_dataplane_chain|bench_smoke_recovery|bench_smoke_svc') >&2
  echo "verify: ASan chaos + recovery-tier + SVC-tier + data-plane chain smoke passed" >&2
fi

# ThreadSanitizer smoke of the sharded runtime (-DLIVENET_SANITIZE=thread):
# the shard-sweep differential + chaos-flap tests and the boundary
# move/clone units run with real worker threads, so a data race on the
# barrier handoff, the thread-local pools, or the telemetry merge dies
# here rather than silently corrupting a benchmark. The Parallel Brain
# rides along: the routing differential suite (thread-sweep recompute
# bit-identity) and the threads=4 recompute smoke run under TSan, so a
# race on the worker fan-out, the shared SolveCtx tables, or the lazily
# materialized CSR dies here too. Then the golden gate: repro_scale
# --shards=1 vs --shards=4 at the full acceptance topology must produce
# byte-identical QoE CSVs (TSan build, so the diff also runs under the
# race detector). Skip with BENCH_SKIP_TSAN=1.
tsan_dir="${BENCH_TSAN_DIR:-${repo_root}/build-tsan}"
if [[ "${BENCH_SKIP_TSAN:-0}" != "1" ]]; then
  cmake -B "${tsan_dir}" -S "${repo_root}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DLIVENET_SANITIZE=thread >&2
  cmake --build "${tsan_dir}" -j \
      --target test_sharded_sim test_viewer_cohort repro_scale \
               test_routing_differential micro_routing >&2
  (cd "${tsan_dir}" && ctest --output-on-failure \
      -R 'test_sharded_sim|test_viewer_cohort|test_routing_differential|bench_smoke_brain_parallel') >&2
  "${tsan_dir}/bench/repro_scale" --shards=1 --qoe-csv="${tsan_dir}/qoe_s1.csv" >&2
  "${tsan_dir}/bench/repro_scale" --shards=4 --qoe-csv="${tsan_dir}/qoe_s4.csv" >&2
  if ! cmp -s "${tsan_dir}/qoe_s1.csv" "${tsan_dir}/qoe_s4.csv"; then
    echo "error: shard-sweep golden diverged (--shards=1 vs --shards=4 QoE CSV)" >&2
    diff "${tsan_dir}/qoe_s1.csv" "${tsan_dir}/qoe_s4.csv" | head -20 >&2
    exit 1
  fi
  echo "verify: TSan sharded + parallel-Brain differential smoke passed; shard-sweep goldens identical" >&2
fi

cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "${build_dir}" -j \
    --target micro_dataplane micro_path_decision micro_routing \
             micro_telemetry >&2

for b in micro_dataplane micro_path_decision micro_routing micro_telemetry; do
  if [[ ! -x "${build_dir}/bench/${b}" ]]; then
    echo "error: ${build_dir}/bench/${b} not built (cmake --build ${build_dir})" >&2
    exit 1
  fi
done

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

# Five repetitions per benchmark, reported as mean/median/stddev/cv
# aggregates only, so each artefact carries its own spread.
run_bench() { # name -> writes ${tmp}/$1.json
  "${build_dir}/bench/$1" \
    --benchmark_format=json \
    --benchmark_min_time="${min_time}" \
    --benchmark_repetitions=5 \
    --benchmark_report_aggregates_only=true \
    >"${tmp}/$1.json"
  echo "ran $1" >&2
}

run_bench micro_dataplane
run_bench micro_path_decision
run_bench micro_routing
run_bench micro_telemetry

cp "${tmp}/micro_dataplane.json" "${out_dir}/BENCH_dataplane.json"
cp "${tmp}/micro_telemetry.json" "${out_dir}/BENCH_telemetry.json"

# Merge the two brain-side suites into one artefact: keep the first
# run's context, concatenate the benchmark arrays.
python3 - "${tmp}/micro_path_decision.json" "${tmp}/micro_routing.json" \
    "${out_dir}/BENCH_brain.json" <<'PY'
import json
import sys

first, second, out = sys.argv[1], sys.argv[2], sys.argv[3]
with open(first) as f:
    merged = json.load(f)
with open(second) as f:
    extra = json.load(f)
merged["benchmarks"] += extra["benchmarks"]
with open(out, "w") as f:
    json.dump(merged, f, indent=1)
    f.write("\n")
PY

echo "wrote ${out_dir}/BENCH_dataplane.json" >&2
echo "wrote ${out_dir}/BENCH_brain.json" >&2
echo "wrote ${out_dir}/BENCH_telemetry.json" >&2

# Headline summary: end-to-end forwarding throughput (packets/sec) of
# the 600-node chain, straight from the artefact just written. The pps
# counter is emitted by BM_EndToEndForward itself (kIsRate), so the
# column below is a projection of BENCH_dataplane.json, not a re-run.
python3 - "${out_dir}/BENCH_dataplane.json" <<'PY' >&2
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
for b in doc["benchmarks"]:
    if b.get("run_type") == "aggregate" and b.get("aggregate_name") != "median":
        continue
    if b.get("run_name", b["name"]) == "BM_EndToEndForward" and "pps" in b:
        print("BM_EndToEndForward pps: %.3g" % b["pps"])
PY
