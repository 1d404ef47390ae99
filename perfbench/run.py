#!/usr/bin/env python3
"""Builds and runs the AVA3 end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload point_stream --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --ladder [--seed 1] [--step-seconds 2]

The first call configures and builds perfbench/ (the repository's library
sources plus the benchmark program) into $CARGO_TARGET_DIR, or .bench_build when that
is unset; later calls only rebuild what changed. Build output goes to
stderr.

A run is SUB_RUNS perfbench processes, each on a freshly set up database, with
a window of --seconds / SUB_RUNS; AGGREGATE says how each gated metric is
combined over them. Each process builds exactly one database, as a
deployment does: a database built after another in the same process behaves
differently on scan_large (see README.md). --trace 1 adds one traced
process after the untraced ones and reports its per-layer metrics. The last
stdout line is the JSON result.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SUB_RUNS = 3
# A gated run must end well inside three minutes; the ladder is a
# diagnostic whose overloaded steps may take minutes to drain.
RUN_BUDGET_S = 170
# How a run's gated figure is made from its sub-runs. The rest take the
# mean: for committed_tps that is exactly the run's rate (equal windows),
# and for the p50s it damps the sub-run to sub-run swing that the
# closed-loop and advancement dynamics cause (hot_contention's staleness is
# bimodal per sub-run). setup_s is the median of the run's set-ups, and
# peak_rss_mb the run's peak, i.e. the largest of its processes.
AGGREGATE = {"setup_s": "median", "peak_rss_mb": "max"}
LADDER_RATES = [10000, 20000, 40000, 60000]
LADDER_DRAIN_CAP_S = 120
LADDER_P99_LIMIT_US = 25000


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; "
             "run from the root of a full checkout")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def drive(binary, args, deadline):
    """Runs one perfbench process; echoes its report indented and returns
    (exit code, result JSON or None, DETAIL JSON or None)."""
    proc = subprocess.Popen([binary] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.splitlines()
    result = detail = None
    for line in lines:
        if line.startswith("DETAIL "):
            detail = json.loads(line[len("DETAIL "):])
        elif line.startswith("{"):
            result = json.loads(line)
        else:
            print("  | " + line)
    return proc.returncode, result, detail


def values(results, key):
    return [r[key]["value"] for r in results]


def gated_run(binary, a):
    deadline = time.monotonic() + RUN_BUDGET_S
    sub_s = a.seconds / SUB_RUNS
    common = ["--workload", a.workload, "--seconds", repr(sub_s)]
    results, details = [], []
    correct, attempted, failed = True, 0, 0
    for i in range(SUB_RUNS):
        seed = a.seed * SUB_RUNS + i
        print(f"sub-run {i}: seed {seed}")
        code, res, det = drive(binary, common + ["--seed", str(seed), "--trace", "0"], deadline)
        if res is None:
            fail(f"sub-run {i} ended with code {code} and no result")
        correct = correct and res["correct"] and code == 0
        attempted += res["attempted"]
        failed += res["failed"]
        results.append(res["metrics"])
        details.append(det or {})

    metrics = {}
    print(f"-- {a.workload}: over {SUB_RUNS} sub-runs (values per sub-run)")
    for name, m in results[0].items():
        v = values(results, name)
        how = AGGREGATE.get(name, "mean")
        value = {"mean": statistics.mean, "median": statistics.median, "max": max}[how](v)
        metrics[name] = {"value": value, "unit": m["unit"]}
        print(f"  {name:20s} {value:14.4f} {m['unit']:6s} {how:6s} "
              + " ".join(f"{x:.6g}" for x in v))
    print("-- reported, not gated (median of sub-runs)")
    for name in details[0]:
        v = values(details, name)
        print(f"  {name:20s} {statistics.median(v):14.4f} {details[0][name]['unit']:6s} "
              + " ".join(f"{x:.6g}" for x in v))

    if a.trace == 1:
        seed = a.seed * SUB_RUNS
        print(f"traced sub-run: seed {seed}")
        code, res, _ = drive(binary, common + [
            "--seed", str(seed), "--trace", "1",
            "--untraced-tps", repr(metrics["committed_tps"]["value"]),
            "--untraced-p50-us", repr(metrics["update_p50_us"]["value"])], deadline)
        if res is None:
            fail(f"traced sub-run ended with code {code} and no result")
        correct = correct and res["correct"] and code == 0
        attempted += res["attempted"]
        failed += res["failed"]
        metrics = res["metrics"]

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def ladder(binary, a):
    """Diagnostic, never gated: point_stream's traffic at rising rates."""
    print(f"rate ladder: point_stream traffic, {a.step_seconds} s steps after a 1 s "
          f"warm-up, one process per step; limit: update and query p99 <= "
          f"{LADDER_P99_LIMIT_US} us, nothing failed, drained within 1 s")
    rows, best, all_correct = [], 0, True
    for rate in LADDER_RATES:
        deadline = time.monotonic() + LADDER_DRAIN_CAP_S + 120
        code, res, det = drive(binary, [
            "--workload", "point_stream", "--seed", str(a.seed), "--seconds",
            repr(a.step_seconds), "--trace", "0", "--rate", str(rate),
            "--drain-cap", str(LADDER_DRAIN_CAP_S)], deadline)
        if res is None or det is None:
            fail(f"ladder step {rate} ended with code {code} and no result")
        all_correct = all_correct and res["correct"]
        d = {k: v["value"] for k, v in det.items()}
        m = {k: v["value"] for k, v in res["metrics"].items()}
        ok = (d["drained"] == 1 and d["drain_s"] <= 1.0 and d["failed_ratio"] == 0
              and d["unfinished"] == 0
              and d["update_p99_us"] <= LADDER_P99_LIMIT_US
              and d["query_p99_us"] <= LADDER_P99_LIMIT_US)
        if ok:
            best = max(best, rate)
        rows.append((rate, m["committed_tps"], d["update_p99_us"], d["query_p99_us"],
                     d["failed_ratio"], d["unfinished"], d["abort_ratio"], d["drain_s"],
                     d["drained"], ok))
    print(f"{'rate':>7} {'committed_tps':>13} {'update_p99_us':>13} {'query_p99_us':>13} "
          f"{'failed_ratio':>12} {'unfinished':>10} {'abort_ratio':>11} {'drain_s':>8}  verdict")
    for rate, tps, up, qp, fr, unf, ar, dr, drained, ok in rows:
        print(f"{rate:7d} {tps:13.0f} {up:13.0f} {qp:13.0f} {fr:12.4f} {unf:10.0f} {ar:11.4f} "
              f"{dr:8.2f}  " + ("meets limit" if ok else "misses limit")
              + ("" if drained else f" (backlog left after {LADDER_DRAIN_CAP_S} s drain)"))
    print(f"highest rate meeting the limit: {best} txn/s")
    return 0 if all_correct else 1


def main():
    # A terminated benchmark must not leave a perfbench process behind it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["point_stream", "scan_large", "hot_contention"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--ladder", action="store_true")
    p.add_argument("--step-seconds", type=float, default=2)
    a = p.parse_args()
    if not a.ladder and a.workload is None:
        p.error("--workload is required")
    binary = build()
    sys.stdout.flush()
    sys.exit(ladder(binary, a) if a.ladder else gated_run(binary, a))


if __name__ == "__main__":
    main()
