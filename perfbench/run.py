#!/usr/bin/env python3
"""End-to-end tracker benchmark: build, run one workload, report, gate.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-cfg2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced
    python3 perfbench/run.py --selftest              # the benchmark's own tests

The program is built from source into .bench_build/ (CMake, Release) on
first use. A run prints a human-readable report, then, as its last line,
one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. A failed correctness check exits non-zero and names the check
instead of printing a result. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
WORKLOADS = ["paper-cfg2", "fullres-local", "fullres-loopback"]
RUN_TIMEOUT_S = 170

# Accounting tolerances of a traced run (see README.md). The critical
# path is gated; stage closure is reported, because an emulated cost or
# ARU sleep is recorded as requested, so host scheduling delay on wake-up
# lands in the residual.
STAGE_TOLERANCE = 0.15  # |period - accounted| / period, per stage
PATH_TOLERANCE = 0.15   # |sum of layer medians - latency p50| / p50


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; returns the binary's path."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "a") as out:
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs])
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    log("".join(f.readlines()[-20:]))
                log("perfbench: build step failed: " + " ".join(cmd))
                sys.exit(2)
    return os.path.join(BUILD_DIR, target)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run, if present."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--workdir", BUILD_DIR]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
        sys.exit(3)
    if proc.returncode != 0 or not proc.stdout.strip():
        log(proc.stderr[-4000:])
        log(f"perfbench: {workload} exited with code {proc.returncode}")
        sys.exit(3)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["host"].update(nproc_os=os.cpu_count(), cpu_model=cpu_model(),
                          process_wall_s=time.monotonic() - started)
    return result


def stage_gap(s):
    """Unaccounted share of one stage's iteration period."""
    period = s["period_ms"]
    accounted = s["compute_ms"] + s["blocked_ms"] + s["sleep_ms"] + s["transfer_overhead_ms"]
    return abs(period - accounted) / period if period > 0 else 1.0


def path_check(result):
    """The critical-path layers must add up to the traced latency p50."""
    layers = {row["layer"]: row for row in result["critical_path"]}
    p50 = result["info"]["traced_latency_p50_ms"]
    summed = sum(layers[k]["median_ms"] for k in ("vision", "runtime", "cluster", "net"))
    gap = abs(summed - p50) / p50 if p50 > 0 else 1.0
    return {"name": "critical_path_adds_up", "ok": gap <= PATH_TOLERANCE,
            "detail": f"layer medians sum to {summed:.3f} ms against p50 {p50:.3f} ms "
                      f"({100 * gap:.1f}% off, tolerance {100 * PATH_TOLERANCE:.0f}%)"}


def report(result):
    h = result["host"]
    print(f"== {result['workload']} (trace={result['trace']}) seed={h['seed']}")
    print(f"host: nproc={h['nproc']} cpu=\"{h['cpu_model']}\" compiler=gcc-{h['compiler']} "
          f"build={h['build_type']} wall={h['wall_s']:.1f}s cpu={h['cpu_s']:.1f}s")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:14.4f} {m['unit']}")
    for key, value in result["info"].items():
        print(f"  ({key} = {value:g})")
    print(f"  attempted={result['attempted']} failed={result['failed']}")
    if result["stages"]:
        print("  stage accounting, ms per iteration "
              "(period = compute + blocked + ARU sleep + transfer/overhead):")
        print("    stage        period  body-wall   cpu   compute  blocked   sleep  xfer+ovh"
              "  closure")
        for s in result["stages"]:
            gap = stage_gap(s)
            verdict = "within" if gap <= STAGE_TOLERANCE else "OUTSIDE"
            wall = f"{s['body_wall_ms']:9.3f}" if s["body_wall_ms"] >= 0 else "      n/a"
            print(f"    {s['stage']:10s} {s['period_ms']:8.3f} {wall} "
                  f"{s['cpu_ms']:7.3f} {s['compute_ms']:8.3f} {s['blocked_ms']:8.3f} "
                  f"{s['sleep_ms']:7.3f} {s['transfer_overhead_ms']:8.3f}  {100 * gap:4.1f}% "
                  f"({verdict} {100 * STAGE_TOLERANCE:.0f}%)")
    if result["critical_path"]:
        print("  critical path self time per result, ms:")
        for row in result["critical_path"]:
            print(f"    {row['layer']:8s} median {row['median_ms']:9.3f}  mean {row['mean_ms']:9.3f}"
                  f"  ({int(row['samples'])} results)")
    # One line per check name: its first failure, else its last pass.
    shown = {}
    for c in result["checks"]:
        if c["name"] not in shown or shown[c["name"]]["ok"]:
            shown[c["name"]] = c
    for c in shown.values():
        print(f"  check {'PASS' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    sys.stdout.flush()


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--selftest", action="store_true", help="build and run the benchmark's tests")
    args = ap.parse_args()

    if args.selftest:
        sys.exit(subprocess.call([build("perfbench_tests")]))

    binary = build("tracker_bench")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    for w in workloads:
        result = run_workload(binary, w, args.seed, args.seconds, args.trace == 1)
        if args.trace:
            result["checks"].append(path_check(result))
        report(result)
        results.append(result)

    failed = [c["name"] for r in results for c in r["checks"] if not c["ok"]]
    if failed:
        log("perfbench: correctness check failed: " + ", ".join(failed))
        sys.exit(1)

    if len(results) > 1:
        path = os.path.join(BUILD_DIR, "results.json")
        with open(path, "w") as f:
            json.dump(results, f, indent=1)
        print(f"wrote {path}")
        return

    result = results[0]
    metrics = result["metrics"]
    wanted = declared_metrics(args.trace == 1)
    if wanted is not None:
        missing = [n for n in wanted if n not in metrics]
        if missing:
            log("perfbench: metrics missing from the run: " + ", ".join(missing))
            sys.exit(4)
        metrics = {n: metrics[n] for n in wanted}
    print(json.dumps({"correct": True, "attempted": max(1, int(result["attempted"])),
                      "failed": int(result["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
