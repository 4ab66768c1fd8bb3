"""The benchmark's four workloads: their inputs, one pass of calls each, and
the checks on every output.

A pass is the unit the runner repeats: the whole problem for the fixed
workloads (enum-fc57, vfc-57), and one family from every stratum of
bench/pool.json for the seeded ones (decide-n7, certify-n6).  The seed picks
the families; the fixed workloads ignore it.  make_pool.py says why the
pools are stratified.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from spans import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# how far the pool's timings of one pass's draw may lie from the nominal pass
# time; one draw per stratum alone left the pass time of certify-n6 varying
# by 6-11 % from seed to seed (quartile distance over median)
BALANCE = 0.02


def load_json(name: str) -> dict:
    with open(os.path.join(BENCH_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


class Session:
    """Makes a workload's top-level calls and counts them.

    A call that raises (a timeout included) or whose output fails its check
    is a failed op; the failure is recorded and the run goes on.
    """

    def __init__(self, fcfam: Any, tracer: Tracer, deadline: float):
        self.fcfam = fcfam
        self.tracer = tracer
        self.deadline = deadline  # time.monotonic() value passed to every solver call
        self.ops = 0
        self.failures: list[str] = []

    def op(self, name: str, call: Callable[[], Any],
           check: Callable[[Any], Optional[str]],
           tag: Optional[Callable[[Any], Any]] = None) -> Any:
        """Run one top-level call in a span called `name`; return its result,
        or None when it raised."""
        self.ops += 1
        try:
            with self.tracer.span(name) as span:
                result = call()
            if tag is not None:
                span.tag = tag(result)
            problem = check(result)
        except Exception as exc:  # the run must outlive any single failed call
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        if problem:
            self.failures.append(f"{name}: {problem}")
        return result

    def decide(self, p: dict, fam: Any) -> Any:
        must_be_fc = must_be_fc_by_size(p, fam)

        def check(cert: Any) -> Optional[str]:
            if cert.family != fam:
                return "certificate is about another family"
            if must_be_fc and cert.kind != "fc":
                return f"{fam} is FC by its size, got {cert.kind}"
            return None

        return self.op(
            "fcsolve.is_fc",
            lambda: self.fcfam.is_fc(fam, symmetry=p["symmetry"], warm_start=p["warm_start"],
                                     deadline=self.deadline),
            check,
            tag=lambda cert: ("runner", cert.kind),
        )

    def check_certificate(self, cert: Any) -> Optional[bool]:
        """Round-trip a certificate through JSON and verify the copy; return
        whether it passed, or None when the call raised."""
        fcsolve = self.fcfam.fcsolve

        def call() -> tuple[Any, Any]:
            with self.tracer.span("verify.io"):
                text = json.dumps(fcsolve.certificate_to_dict(cert))
                copy = fcsolve.certificate_from_dict(json.loads(text))
            with self.tracer.span("verify.certificate") as span:
                report = self.fcfam.verify_certificate(copy)
            span.tag = (copy.kind, report.passed)
            return copy, report

        def check(res: tuple[Any, Any]) -> Optional[str]:
            copy, report = res
            if copy.kind != cert.kind:
                return f"JSON round trip turned {cert.kind} into {copy.kind}"
            if not report.passed:
                return f"certificate rejected: {report.failure}"
            return None

        res = self.op("verify.request", call, check)
        return None if res is None else res[1].passed


def count_table(report: Any) -> list[list[int]]:
    """An FcValueReport's class counts as sorted [u, m, count] cells."""
    return sorted([u, m, c] for (u, m), c in report.counts.items())


def check_report(report: Any, expect: dict) -> Optional[str]:
    """Compare an FcValueReport with the committed outputs."""
    got = {"status": report.status, "value": report.value, "counts": count_table(report)}
    wrong = [f"{key} {got[key]!r} != {expect[key]!r}" for key in ("status", "value")
             if got[key] != expect[key]]
    if got["counts"] != sorted(expect["counts"]):
        cells = {(u, m): c for u, m, c in expect["counts"]}
        diff = [f"(u={u}, m={m}): {c} != {cells.get((u, m))}"
                for u, m, c in got["counts"] if cells.get((u, m)) != c]
        wrong.append("counts " + ("; ".join(diff[:5]) or "cover other cells"))
    if expect["status"] == "found" and report.witness_certificate is None:
        wrong.append("no witness certificate")
    return ", ".join(wrong) or None


def report_outputs(report: Any) -> Any:
    if report is None:
        return None
    return [report.status, report.value, count_table(report)]


def enum_pass(s: Session, p: dict, expect: dict, _families: None) -> Any:
    report = s.op(
        "enumfam.fc_value",
        lambda: s.fcfam.fc_value(p["k"], p["n"], p["m_max"], jobs=1, symmetry=p["symmetry"],
                                 warm_start=p["warm_start"], deadline=s.deadline),
        lambda r: check_report(r, expect),
    )
    return report_outputs(report)


def vfc_pass(s: Session, p: dict, expect: dict, _families: None) -> Any:
    report = s.op(
        "enumfam.fcv_value",
        lambda: s.fcfam.fcv_value(p["k"], p["n"], p["domain"], jobs=1,
                                  warm_start=p["warm_start"], deadline=s.deadline),
        lambda r: check_report(r, expect),
    )
    passed = None
    if report is not None and report.witness_certificate is not None:
        passed = s.check_certificate(report.witness_certificate)
    return [report_outputs(report), passed]


def must_be_fc_by_size(p: dict, fam: Any) -> bool:
    """A family of at least FC(k, n) k-sets is FC whatever it looks like."""
    k = bin(fam.members[0]).count("1")
    return len(fam.members) >= p["fc_value"][str(k)]


def decide_pass(s: Session, p: dict, _expect: None, families: list) -> Any:
    out = []
    for fam in families:
        cert = s.decide(p, fam)
        out.append(None if cert is None else cert.kind)
    return out


def certify_pass(s: Session, p: dict, _expect: None, families: list) -> Any:
    out = []
    for fam in families:
        cert = s.decide(p, fam)
        passed = None if cert is None else s.check_certificate(cert)
        out.append([None if cert is None else cert.kind, passed])
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seeded: bool
    scales: dict  # "full" | "smoke" -> parameters of the calls and checks
    run_pass: Callable[[Session, dict, Any, Any], Any]
    fixed_pass_s: Optional[dict] = None  # scale -> seconds of one pass, fixed workloads

    def pass_seconds(self, scale: str) -> float:
        """Nominal time of one pass on the reference machine (2 cores)."""
        if self.seeded:
            return load_json("pool.json")[self.name][scale]["pass_s"]
        return self.fixed_pass_s[scale]

    def families(self, fcfam: Any, scale: str, seed: int, passes: int) -> list:
        """Per pass, one family from every stratum of the pool, drawn with
        `seed` and redrawn until the pool's timings of the draw add up to
        within BALANCE of the nominal pass time; a list of None for the
        fixed workloads."""
        if not self.seeded:
            return [None] * passes
        pool = load_json("pool.json")[self.name][scale]
        strata = pool["strata"]
        rng = random.Random(seed)
        out = []
        for _ in range(passes):
            while True:
                picks = [rng.randrange(len(st["families"])) for st in strata]
                cost = sum(st["cost_s"][i] for st, i in zip(strata, picks))
                if abs(cost - pool["pass_s"]) <= BALANCE * pool["pass_s"]:
                    break
            out.append([fcfam.Family.from_masks(pool["n"], st["families"][i])
                        for st, i in zip(strata, picks)])
        return out

    def describe(self, scale: str) -> dict:
        """The parameters, and for a seeded workload the shape of its pool."""
        out = dict(self.scales[scale])
        if self.seeded:
            pool = load_json("pool.json")[self.name][scale]
            out["pool"] = {"n": pool["n"], "pass_s": pool["pass_s"],
                           "strata": [[st["k"], st["kind"], len(st["families"])]
                                      for st in pool["strata"]]}
        return out

    def expected(self, scale: str) -> Optional[dict]:
        return load_json("expected.json").get(self.name, {}).get(scale)


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "enum-fc57",
            "fc_value(5,7,m_max=11): canonical labeling and the exact LP do all the work "
            "and no separation solve runs",
            False,
            {"full": {"k": 5, "n": 7, "m_max": 11, "symmetry": False, "warm_start": True},
             "smoke": {"k": 4, "n": 5, "m_max": None, "symmetry": False, "warm_start": True}},
            enum_pass,
            {"full": 19.0, "smoke": 0.03},
        ),
        Workload(
            "vfc-57",
            "fcv_value(5,7) over no-singletons: restricted-domain separation where most "
            "solves find a violated family",
            False,
            {"full": {"k": 5, "n": 7, "domain": "no-singletons", "warm_start": True},
             "smoke": {"k": 5, "n": 6, "domain": "no-singletons", "warm_start": True}},
            vfc_pass,
            {"full": 28.0, "smoke": 0.1},
        ),
        Workload(
            "decide-n7",
            "seeded FC decisions of 4- and 5-set families on [7] with symmetry on: "
            "separation solves that prove no violation",
            True,
            {"full": {"fc_value": {"4": 10, "5": 14}, "symmetry": True, "warm_start": True},
             "smoke": {"fc_value": {"3": 3, "4": 5}, "symmetry": True, "warm_start": True}},
            decide_pass,
        ),
        Workload(
            "certify-n6",
            "seeded decisions on [6], JSON round trip and verify_certificate: the only "
            "workload that runs the checker",
            True,
            {"full": {"fc_value": {"4": 7}, "symmetry": True, "warm_start": True},
             "smoke": {"fc_value": {"3": 3}, "symmetry": True, "warm_start": True}},
            certify_pass,
        ),
    ]
}
