"""Tests of the benchmark itself, at smoke scale (a few seconds in all).

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import hostspeed  # noqa: E402
import run  # noqa: E402
from spans import PER_LAYER, Tracer  # noqa: E402
from workloads import BALANCE, WORKLOADS, Session, load_json  # noqa: E402

fcfam = run.import_fcfam()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def load_benchmark() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_and_benchmark_json_agree():
    spec = load_benchmark()
    assert [tuple(m[k] for k in ("name", "unit", "better")) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [tuple(m[k] for k in ("name", "unit", "better")) for m in spec["per_layer"]] \
        == PER_LAYER
    assert [(w["name"], w["why"]) for w in spec["workloads"]] \
        == [(w.name, w.why) for w in WORKLOADS.values()]
    names = [n for n, _, _ in run.END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_workload_untraced_and_traced(name):
    wl = WORKLOADS[name]
    _, walls, ref_walls, plain_out, plain = run.run_workload(
        fcfam, wl, "smoke", 5, 2, trace=False)
    assert plain.failures == [] and plain.ops >= 2
    assert len(walls) == len(ref_walls) == 2 and all(t > 0 for t in walls + ref_walls)
    originals = {attr: getattr(fcfam.fcsolve, attr)
                 for attr in ("lp_solve", "solve_separation", "family_orbit")}
    tracer, walls, ref_walls, traced_out, traced = run.run_workload(
        fcfam, wl, "smoke", 5, 2, trace=True)
    assert ref_walls == []
    assert traced.failures == [] and traced.ops == plain.ops
    assert traced_out == plain_out
    for attr, fn in originals.items():
        assert getattr(fcfam.fcsolve, attr) is fn
    metrics = run.layer_metrics(tracer, walls[0])
    assert list(metrics) == [n for n, _, _ in PER_LAYER]
    assert metrics["fcsolve.is_fc.calls"] > 0
    requests = {}
    for span in tracer.spans:
        if span.parent is not None:
            assert tracer.spans[span.parent].request == span.request
        requests.setdefault(span.request, span)
    assert all(root.parent is None for root in requests.values())


def test_sampler_leaves_its_own_time_out():
    with hostspeed.Sampler() as sampler:
        t0 = time.perf_counter()
        end = t0 + 3 * hostspeed.PERIOD_S
        while time.perf_counter() < end:
            pass
        t1 = time.perf_counter()
    inside = [s for s in sampler.samples if t0 <= s[0] and s[1] <= t1]
    assert len(inside) >= 2 and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    wall, ref = sampler.measure(t0, t1)
    assert wall == pytest.approx(t1 - t0 - sum(e - s for s, e in inside))
    assert ref > 0


def test_seeded_draws_repeat_and_keep_the_pass_cost():
    wl = WORKLOADS["certify-n6"]
    pool = load_json("pool.json")["certify-n6"]["full"]
    first = wl.families(fcfam, "full", 11, 3)
    assert first == wl.families(fcfam, "full", 11, 3) != wl.families(fcfam, "full", 12, 3)
    for families in first:
        cost = sum(st["cost_s"][st["families"].index(list(fam.members))]
                   for st, fam in zip(pool["strata"], families))
        assert abs(cost - pool["pass_s"]) <= BALANCE * pool["pass_s"]


def test_wrong_expected_output_is_a_failed_op():
    wl = WORKLOADS["enum-fc57"]
    expect = dict(wl.expected("smoke"), value=6)
    _, _, _, outputs, session = run.run_workload(fcfam, wl, "smoke", 1, 1, trace=False,
                                              expect=expect)
    assert session.ops == 1 and len(session.failures) == 1
    assert "value 5 != 6" in session.failures[0]
    assert outputs[0][1] == 5


def test_wrong_verdict_and_exception_are_failed_ops():
    wl = WORKLOADS["certify-n6"]
    families = wl.families(fcfam, "smoke", 1, 4)
    session = Session(fcfam, Tracer(), deadline=float("inf"))
    # claim every family of two 3-sets is FC; Non-FC ones then fail their check
    params = dict(wl.scales["smoke"], fc_value={"3": 2})
    outputs = [wl.run_pass(session, params, None, fams) for fams in families]
    nonfc = sum(kind == "non-fc" for out in outputs for kind, _ in out)
    assert nonfc > 0 and len(session.failures) == nonfc
    assert session.op("boom", lambda: 1 // 0, lambda r: None) is None
    assert "ZeroDivisionError" in session.failures[-1]


def bench_cmd(*extra: str) -> list[str]:
    return [sys.executable, os.path.join(BENCH_DIR, "run.py"), *extra]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_result_line(trace):
    out = subprocess.run(
        bench_cmd("--workload", "decide-n7", "--scale", "smoke", "--seed", "2",
                  "--seconds", "0.05", "--trace", trace),
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout.strip().splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = load_benchmark()["end_to_end" if trace == "0" else "per_layer"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    env = json.loads(out[-2])["report"]["env"]
    assert env["jobs"] == 1 and env["seed"] == 2 and env["params"]["pool"]["n"] == 5


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "enum-fc57", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
