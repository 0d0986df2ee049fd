#!/usr/bin/env python3
"""End-to-end benchmark of the LiveNet simulator.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root. The first call builds the simulator
libraries from ../src and the two drivers (perfbench/driver) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), Release.

--trace 0 runs the untraced driver for the budget and reports the
end-to-end metrics. --trace 1 runs the minimum set of repetitions (the
ones every run digests: 4 scenarios, or 2 routing cycles) untraced and
then in the traced driver, which records a span around every layer
entry point, and reports the per-layer metrics per repetition. Every run checks its output:
all repetitions of a scenario must produce the same digest, the digest
must match perfbench/reference_digests.json where that pins the seed,
and a traced run must reproduce the untraced digest. Percentiles are
computed here from raw samples; the simulator's registry quantiles are
never read.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Lines before it are a human-readable report, including the host stamp.
A full record of the run is written under the build directory's
results/ folder.
"""
import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(
    ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
REFERENCE_DIGESTS = os.path.join(HERE, "reference_digests.json")
RUN_TIMEOUT_S = 170

# Workloads are defined in driver/main.cpp; see README.md for why.
WORKLOADS = ("paper_livenet", "paper_hier", "chaos_recovery", "brain_600")

# (name, unit, better). Units of per-rep values: a rep is one simulated
# scenario day, or one routing cycle on brain_600.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("sim_per_wall", "s/s", "higher"),
    ("work_per_s", "1/s", "higher"),
    ("wall_ms_per_sim_s.p50", "ms", "lower"),
    ("wall_ms_per_sim_s.p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# Spans recorded by the traced driver (driver/trace_on.cpp), each
# reported as <span>.calls and <span>.self_ms per rep.
SPANS = [
    "sim.run", "sim.send",
    "transport.send_history.record", "transport.send_history.lookup",
    "transport.pacer.enqueue", "transport.receive_buffer.on_packet",
    "transport.gcc.on_packet",
    "media.packetize", "media.framer.on_packet", "media.gop_cache.add_frame",
    "media.jitter_framer.on_packet", "media.fec.encode", "media.fec.decode",
    "overlay.forwarding.fast_forward", "overlay.link_sender.send_media",
    "overlay.link_sender.send_rtx", "overlay.link_sender.on_nack",
    "overlay.link_receiver.on_rtp", "overlay.packet_cache.add",
    "overlay.packet_cache.find_packet", "overlay.control",
    "overlay.control.switch_path", "overlay.control.update_upstream_mask",
    "overlay.session", "overlay.session.deliver_to_client",
    "client.video_source.next_picture",
    "brain.recompute", "brain.discovery.on_report",
]

PER_LAYER = [m for s in SPANS
             for m in ((s + ".calls", "count"), (s + ".self_ms", "ms"))] + [
    ("sim.events", "count"),
    ("sim.peak_pending", "count"),
    ("sim.batch.packets_per_upcall", "ratio"),
    ("media.fec.recovered_per_parity", "ratio"),
    ("overlay.packet_cache.hit_ratio", "ratio"),
    ("overlay.rtx_per_hole", "ratio"),
    ("client.viewer.on_frame.calls", "count"),
    ("client.view_fail_frac", "ratio"),
    ("brain.recompute.graph_build_ms", "ms"),
    ("brain.recompute.solve_ms", "ms"),
    ("brain.recompute.install_ms", "ms"),
    ("brain.recompute_ms.p50", "ms"),
    ("brain.pairs_solved", "count"),
    ("brain.unrouted_frac", "ratio"),
    ("brain.recompute.solve_ms.threads_1", "ms"),
    ("brain.recompute.solve_ms.threads_4", "ms"),
    ("faults.injected", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build():
    """Configures and builds both drivers; returns their paths."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        log_path = os.path.join(BUILD_DIR, "build.log")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                      "--target", "perfbench_run", "perfbench_traced"])
        with open(log_path, "a") as lf:
            for cmd in steps:
                if subprocess.run(cmd, stdout=lf, stderr=subprocess.STDOUT,
                                  timeout=850).returncode != 0:
                    with open(log_path) as f:
                        log(f.read()[-4000:])
                    raise SystemExit("perfbench: build failed: "
                                     + " ".join(cmd))
    return {"untraced": os.path.join(BUILD_DIR, "perfbench_run"),
            "traced": os.path.join(BUILD_DIR, "perfbench_traced")}


def build_info():
    info = {}
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                key, _, value = line.strip().partition("=")
                name = key.split(":")[0]
                if name in ("CMAKE_BUILD_TYPE", "CMAKE_CXX_COMPILER",
                            "CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_RELEASE"):
                    info[name] = value
    except OSError:
        pass
    return info


def git_revision():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=5)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def load_reference_digests():
    try:
        with open(REFERENCE_DIGESTS) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


# ---------------------------------------------------------------- runs

def drive(binary, workload, seed, seconds, extra=()):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds)] + list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        log(proc.stderr)
        raise SystemExit(f"perfbench: driver exited {proc.returncode}: "
                         + " ".join(cmd))
    return json.loads(proc.stdout)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, q):
    """q-th percentile of raw samples (linear interpolation)."""
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def end_to_end_metrics(out):
    reps = out["reps"]
    slices = [x for rep in reps for x in rep["slice_ms"]]
    return {
        "setup_s": median(out["setup_s"]),
        "wall_s": median([r["wall_s"] for r in reps]),
        "sim_per_wall": median([r["virtual_s"] / r["wall_s"] for r in reps]),
        "work_per_s": median([r["work"] / r["wall_s"] for r in reps]),
        "wall_ms_per_sim_s.p50": percentile(slices, 50),
        "wall_ms_per_sim_s.p90": percentile(slices, 90),
        "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
    }


def counter_totals(out):
    totals = defaultdict(float)
    for rep in out["reps"]:
        for k, v in rep["counters"].items():
            totals[k] += v
    return totals


def ratio(num, den):
    return num / den if den else 0.0


def fail_counts(out):
    """(failed, attempted) user-level operations: views that failed or
    never displayed a frame, or (src, dst) pairs left without any path
    after a routing cycle on brain_600."""
    c = counter_totals(out)
    if out["workload"] == "brain_600":
        return int(c["brain.unrouted_pairs"]), int(c["brain.pairs"])
    return int(c["client.views_failed"]), int(c["client.views"])


def per_layer_metrics(traced, untraced):
    reps = traced["reps"]
    n = len(reps)
    trace = traced["trace"]
    spans = trace["spans"]
    extras = defaultdict(float, trace["extras"])
    c = counter_totals(traced)
    m = {}
    for s in SPANS:
        span = spans.get(s, {"calls": 0, "self_ms": 0.0})
        m[s + ".calls"] = span["calls"] / n
        m[s + ".self_ms"] = span["self_ms"] / n
    is_brain = traced["workload"] == "brain_600"
    m["sim.events"] = c["sim.events"] / n
    m["sim.peak_pending"] = max(
        [r["counters"].get("sim.peak_pending", 0) for r in reps] or [0])
    m["sim.batch.packets_per_upcall"] = ratio(c["sim.batch.packets"],
                                              c["sim.batch.upcalls"])
    m["media.fec.recovered_per_parity"] = ratio(extras["fec.recovered"],
                                                extras["fec.parity_received"])
    m["overlay.packet_cache.hit_ratio"] = ratio(
        extras["packet_cache.hits"],
        spans.get("overlay.packet_cache.find_packet", {}).get("calls", 0))
    m["overlay.rtx_per_hole"] = ratio(c["overlay.rtx_sent"], extras["nack.seqs"])
    m["client.viewer.on_frame.calls"] = c["client.frames_released"] / n
    failed, attempted = fail_counts(traced)
    m["client.view_fail_frac"] = 0.0 if is_brain else ratio(failed, attempted)
    m["brain.recompute.graph_build_ms"] = extras["brain.graph_build_ms"] / n
    m["brain.recompute.solve_ms"] = extras["brain.solve_ms"] / n
    m["brain.recompute.install_ms"] = extras["brain.install_ms"] / n
    m["brain.recompute_ms.p50"] = percentile(
        trace["samples"].get("brain.recompute_ms", []), 50)
    m["brain.pairs_solved"] = extras["brain.pairs_solved"] / n
    m["brain.unrouted_frac"] = ratio(failed, attempted) if is_brain else 0.0
    sweep = traced["extra"] or {}
    m["brain.recompute.solve_ms.threads_1"] = sweep.get("solve_ms_threads_1", 0.0)
    m["brain.recompute.solve_ms.threads_4"] = sweep.get("solve_ms_threads_4", 0.0)
    m["faults.injected"] = c["faults.injected"] / n
    # Both passes ran the same reps (the minimum set), so totals compare.
    m["trace.overhead_frac"] = ratio(
        sum(r["wall_s"] for r in reps),
        sum(r["wall_s"] for r in untraced["reps"])) - 1.0
    attributed_ms = sum(spans[s]["self_ms"] for s in spans)
    m["trace.unattributed_frac"] = 1.0 - ratio(
        attributed_ms, 1e3 * sum(r["wall_s"] for r in reps))
    return m


# ---------------------------------------------------------------- gate

def check(workload, seed, outs):
    """Returns a list of correctness failures (empty = correct)."""
    problems = []
    digests = {o["digest"] for o in outs}
    if len(digests) != 1:
        problems.append(f"traced and untraced digests differ: {sorted(digests)}")
    pinned = load_reference_digests().get(workload, {}).get(str(seed))
    if pinned is not None and pinned not in digests:
        problems.append(f"digest {sorted(digests)} != pinned {pinned}")
    for o in outs:
        if not o["reps"] or any(r["work"] <= 0 for r in o["reps"]):
            problems.append("a repetition did no work")
        if workload != "brain_600" and any(
                r["counters"]["client.views"] <= 0 for r in o["reps"]):
            problems.append("a scenario served no views")
    return problems


# ---------------------------------------------------------------- main

def run_workload(workload, seed, seconds, trace, binaries):
    load_before = os.getloadavg()
    started = time.time()
    if trace:
        # The minimum set of reps, untraced then traced: counts per rep
        # are then exact and the two passes time the same work.
        light = ["--setup-reps", "1"]
        untraced = drive(binaries["untraced"], workload, seed, 0.01, light)
        traced = drive(binaries["traced"], workload, seed, 0.01,
                       light + ["--trace"])
        outs = [untraced, traced]
        values = per_layer_metrics(traced, untraced)
        units = dict(PER_LAYER)
    else:
        outs = [drive(binaries["untraced"], workload, seed, seconds)]
        values = end_to_end_metrics(outs[0])
        units = {name: unit for name, unit, _ in END_TO_END}
    load_after = os.getloadavg()
    problems = check(workload, seed, outs)

    nproc = len(os.sched_getaffinity(0))
    failed_ops, ops = fail_counts(outs[0])
    stamp = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "nproc": nproc,
        "loadavg_before": list(load_before), "loadavg_after": list(load_after),
        "loaded_host": load_before[0] > nproc - 1,
        "build": build_info(), "git_revision": git_revision(),
        "digest": outs[0]["digest"], "elapsed_s": time.time() - started,
    }
    if stamp["loaded_host"]:
        log(f"perfbench: WARNING: load average {load_before[0]:.2f} > "
            f"nproc-1 = {nproc - 1} at start; timings are suspect")

    # Human-readable report (ISSUE metric names, with units).
    print(f"# perfbench {workload} seed={seed} trace={int(trace)} "
          f"digest={stamp['digest']} reps={len(outs[-1]['reps'])}")
    for name in sorted(values):
        print(f"  {name} = {values[name]:.6g} {units[name]}")
    if not trace:
        if workload == "brain_600":
            rec = [r["counters"]["brain.recompute_ms"] for r in outs[0]["reps"]]
            print(f"  recompute_ms.p50 = {percentile(rec, 50):.6g} ms "
                  f"(n={len(rec)})")
        else:
            print(f"  packet_hops_per_s = {values['work_per_s']:.6g} 1/s")
    what = "unrouted pairs" if workload == "brain_600" else "failed views"
    print(f"  fail_frac = {ratio(failed_ops, ops):.6g} "
          f"({failed_ops} {what} / {ops})")
    print("  host " + json.dumps(stamp, sort_keys=True))
    for p in problems:
        print(f"  CORRECTNESS FAILURE: {p}")

    os.makedirs(os.path.join(BUILD_DIR, "results"), exist_ok=True)
    record = os.path.join(BUILD_DIR, "results",
                          f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(record, "w") as f:
        json.dump({"host": stamp, "metrics": values, "problems": problems,
                   "driver": outs}, f)

    attempted = len(outs[-1]["reps"])
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted if problems else 0,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }


def main():
    ap = argparse.ArgumentParser(description="LiveNet simulator benchmark")
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    binaries = build()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args.seed, args.seconds, args.trace,
                               binaries) for w in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
