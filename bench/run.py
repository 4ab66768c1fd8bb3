#!/usr/bin/env python3
"""fcfam benchmark runner (stdlib only).

One workload, as BENCHMARK.json's command runs it:

    python3 bench/run.py --workload decide-n7 --seed 3 --seconds 30 --trace 0

prints an environment report line and, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Every workload, untraced
and then traced, each in a fresh process, with a readable summary:

    python3 bench/run.py [--seed N] [--seconds S] [--scale smoke]

The library is imported from src/ next to this directory; nothing under
src/ is changed.  See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from hostspeed import REFERENCE_S, Sampler, loop_time
from spans import PER_LAYER, Tracer, layer_metrics, wrap_enum_decisions, wrap_layers
from workloads import WORKLOADS, Session

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")

# name, unit, better; the order is the order of BENCHMARK.json's end_to_end
END_TO_END = [
    ("ref_wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
MAX_PASSES = 64
SETUP_PROBES = 5
# every solver call gets this deadline, counted from the start of the
# workload, so that a run ends well inside the three minutes it is allowed
CALL_LIMIT_S = 150.0


def import_fcfam():
    """Import the checkout's own fcfam, never an installed copy."""
    sys.path.insert(0, SRC)
    try:
        import fcfam
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import fcfam from {SRC}: {exc}")
    if not os.path.abspath(fcfam.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: fcfam came from {fcfam.__file__}, not from {SRC}")
    return fcfam


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(workload, scale: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": workload.name,
        "scale": scale,
        "seed": seed if workload.seeded else "ignored (fixed problem)",
        "jobs": 1,
        "seconds": seconds,
        "trace": trace,
        "params": workload.describe(scale),
    }


def timing_summary(samples: list[float]) -> dict:
    """Median and the highest of p90/p99 with at least ten samples beyond it."""
    out: dict = {"n": len(samples), "p50_s": statistics.median(samples) if samples else None}
    for q in (99, 90):
        if len(samples) * (100 - q) / 100 >= 10:
            out[f"p{q}_s"] = statistics.quantiles(samples, n=100)[q - 1]
            break
    return out


def run_workload(fcfam, workload, scale: str, seed: int, passes: int, trace: bool,
                 expect: dict | None = None):
    """Run `passes` passes of a workload.  Returns the tracer, the per-pass
    wall times, the same at the reference host speed (untraced runs only,
    which sample the host's speed; traced runs leave it empty), the per-pass
    outputs and the session."""
    if expect is None:
        expect = workload.expected(scale)
    params = workload.scales[scale]
    inputs = workload.families(fcfam, scale, seed, passes)
    tracer = Tracer()
    (wrap_layers if trace else wrap_enum_decisions)(tracer, fcfam)
    session = Session(fcfam, tracer, time.monotonic() + CALL_LIMIT_S)
    intervals: list[tuple[float, float]] = []
    outputs: list = []
    sampler = Sampler()
    try:
        with contextlib.nullcontext() if trace else sampler:
            for families in inputs:
                t0 = time.perf_counter()
                outputs.append(workload.run_pass(session, params, expect, families))
                intervals.append((t0, time.perf_counter()))
    finally:
        left = tracer.restore()
    if left:
        session.failures.append("wrapped names not restored: " + ", ".join(left))
    if trace:
        return tracer, [t1 - t0 for t0, t1 in intervals], [], outputs, session
    walls, ref_walls = zip(*(sampler.measure(t0, t1) for t0, t1 in intervals))
    return tracer, list(walls), list(ref_walls), outputs, session


def pass_count(workload, scale: str, seconds: float) -> int:
    """Passes that take `seconds` on the reference machine (at least one).

    The count depends on --seconds alone, so two commits, or a traced and an
    untraced run, always do the same work for the same seed."""
    return max(1, min(MAX_PASSES, int(seconds // workload.pass_seconds(scale))))


def measure_setup(args) -> tuple[float, float]:
    """Median, over fresh processes, of the time from starting the process to
    having imported fcfam and built this run's inputs: at the reference host
    speed, and plain.  Each probe prints the wall clock when it is ready, so
    its exit is not counted, and then the calibration loop's time measured
    right after, which gives the host's speed during the probe."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--scale", args.scale, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--setup-probe"]
    times, ref_times = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.time()
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
        ready, loop = map(float, out.stdout.split())
        times.append(ready - t0)
        ref_times.append((ready - t0) * REFERENCE_S / loop)
    return statistics.median(ref_times), statistics.median(times)


def run_one(args) -> int:
    fcfam = import_fcfam()
    workload = WORKLOADS[args.workload]
    passes = pass_count(workload, args.scale, args.seconds)
    if args.setup_probe:
        workload.families(fcfam, args.scale, args.seed, passes)
        workload.expected(args.scale)
        ready = time.time()
        print(ready, loop_time())
        return 0
    setup_s, setup_wall_s = (None, None) if args.trace else measure_setup(args)
    tracer, walls, ref_walls, outputs, session = run_workload(
        fcfam, workload, args.scale, args.seed, passes, bool(args.trace))
    wall_s = statistics.median(walls)
    decide = timing_summary(tracer.durations("fcsolve.is_fc"))
    verify = timing_summary(tracer.durations("verify.certificate"))
    if args.trace:
        values = layer_metrics(tracer, wall_s)
        units = {name: unit for name, unit, _ in PER_LAYER}
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR,
                            f"spans-{workload.name}-{args.scale}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload.name, "seed": args.seed,
                       "fields": ["name", "parent", "request", "start_s", "end_s", "tag"],
                       "spans": tracer.dump()}, fh)
    else:
        values = {
            "ref_wall_s": statistics.median(ref_walls),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {name: unit for name, unit, _ in END_TO_END}
    report = {
        "env": environment(workload, args.scale, args.seed, args.seconds, args.trace),
        "passes": len(walls),
        "wall_s": wall_s,
        "setup_wall_s": setup_wall_s,
        "pass_wall_s": walls,
        "pass_ref_wall_s": ref_walls,
        "ops": session.ops,
        "ops_failed": len(session.failures),
        "failures": session.failures,
        "decide": decide,
        "verify": verify,
        "outputs": outputs,
    }
    result = {
        "correct": not session.failures,
        "attempted": session.ops,
        "failed": len(session.failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    for failure in session.failures:
        print(f"# FAILED {failure}")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


def run_child(cmd: list[str]) -> tuple[dict, dict]:
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"bench: {' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def run_all(args) -> int:
    ok = True
    for name, workload in WORKLOADS.items():
        base = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--scale", args.scale, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        report, plain = run_child(base + ["--trace", "0"])
        traced_report, traced = run_child(base + ["--trace", "1"])
        same = traced_report["outputs"] == report["outputs"]
        ok = ok and plain["correct"] and traced["correct"] and same
        env = report["env"]
        print(f"== {name} ({args.scale}, seed {env['seed']}, jobs 1, {env['nproc']} cpus, "
              f"Python {env['python']}, commit {env['commit'][:12]})")
        print(f"   {workload.why}")
        for metric, spec in plain["metrics"].items():
            print(f"   {metric:32s} {spec['value']:12.4f} {spec['unit']}")
        if report["decide"]["n"]:
            print(f"   {'decide_p50_s':32s} {report['decide']['p50_s']:12.4f} s"
                  f" (n={report['decide']['n']})")
        for key in ("p90_s", "p99_s"):
            if key in report["decide"]:
                print(f"   {'decide_' + key:32s} {report['decide'][key]:12.4f} s")
        if report["verify"]["n"]:
            print(f"   {'verify_p50_s':32s} {report['verify']['p50_s']:12.4f} s"
                  f" (n={report['verify']['n']})")
        print(f"   {'ops':32s} {plain['attempted']:12d} count")
        print(f"   {'ops_failed':32s} {plain['failed']:12d} count")
        print(f"   {'wall_s':32s} {report['wall_s']:12.4f} s")
        overhead = traced["metrics"]["trace.wall_s"]["value"] - report["wall_s"]
        print(f"   {'trace overhead (wall_s)':32s} {overhead:12.4f} s")
        print(f"   traced run: same verdicts and counts as untraced: {same}")
        for metric, spec in traced["metrics"].items():
            print(f"   {metric:32s} {spec['value']:12.4f} {spec['unit']}")
        for failure in report["failures"] + traced_report["failures"]:
            print(f"   FAILED {failure}")
    print("ALL CORRECT" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="run one workload (default: all, untraced and traced)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measuring time on the reference machine; sets the number of passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
