"""Spans recorded around calls into fcfam's layers, and the per-layer metrics
computed from them.

The tracer replaces module-level names that fcfam's own callers look up at
call time (for example ``fcfam.enumfam.canonical_form``) with wrappers that
record a span, and puts the originals back in ``restore``.  Spans are held in
memory; nothing in the library is edited.  Calls are single-threaded and
properly nested, so a span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional


class Span:
    __slots__ = ("index", "name", "parent", "request", "start", "end", "tag")

    def __init__(self, index: int, name: str, parent: Optional[int], request: int,
                 start: float):
        self.index = index
        self.name = name
        self.parent = parent
        self.request = request
        self.start = start
        self.end = start
        self.tag: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; a span opened with no span open starts a new request."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._requests = 0
        self._patches: list[tuple[Any, str, Any]] = []

    def _open(self, name: str) -> Span:
        if self._stack:
            parent: Optional[int] = self._stack[-1]
            request = self.spans[parent].request
        else:
            parent = None
            request = self._requests
            self._requests += 1
        span = Span(len(self.spans), name, parent, request, time.perf_counter())
        self._stack.append(span.index)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, module: Any, attr: str, name: str,
             tag: Optional[Callable[[Any, tuple], Any]] = None) -> None:
        """Record a span named `name` around every call of module.attr."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if tag is not None:
                span.tag = tag(result, args)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def restore(self) -> list[str]:
        """Put every wrapped name back; return those that did not come back."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        left = [f"{module.__name__}.{attr}" for module, attr, original in self._patches
                if getattr(module, attr) is not original]
        self._patches.clear()
        return left

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def dump(self) -> list[list]:
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            [s.name, s.parent, s.request, round(s.start - t0, 9), round(s.end - t0, 9), s.tag]
            for s in self.spans
        ]


def wrap_enum_decisions(tracer: Tracer, fcfam: Any) -> None:
    """The one wrapper of untraced runs: decisions made inside enumeration
    drivers, so that the decision latencies in the report cover them too."""
    tracer.wrap(fcfam.enumfam, "is_fc", "fcsolve.is_fc", lambda r, a: ("enumfam", r.kind))


def wrap_layers(tracer: Tracer, fcfam: Any) -> None:
    """Wrap every layer boundary listed in bench/README.md."""
    enumfam, fcsolve, ratlp, verify = fcfam.enumfam, fcfam.fcsolve, fcfam.ratlp, fcfam.verify
    wrap_enum_decisions(tracer, fcfam)
    tracer.wrap(enumfam, "canonical_form", "canon.canonical_form")
    for attr in ("automorphism_group", "generating_set", "family_orbit"):
        tracer.wrap(fcsolve, attr, "canon.symmetry")
    tracer.wrap(
        fcsolve, "lp_solve", "ratlp.lp_solve",
        lambda r, a: (isinstance(r, ratlp.Infeasible), len(a[0].eq_rows) + len(a[0].ge_rows)),
    )
    tracer.wrap(fcsolve, "build_separation", "sepip.build_separation")
    tracer.wrap(fcsolve, "solve_separation", "sepip.solve_separation",
                lambda r, a: "violated" if r.optimum > 0 else "proof")
    tracer.wrap(verify, "build_separation", "sepip.build_separation")
    tracer.wrap(verify, "solve_separation", "sepip.optimal")
    tracer.wrap(verify, "brute_separation", "sepip.optimal")


# name, unit, better; the order is the order of BENCHMARK.json's per_layer
PER_LAYER = [
    ("trace.wall_s", "s", "lower"),
    ("enumfam.driver.self_s", "s", "lower"),
    ("enumfam.is_fc.calls", "count", "lower"),
    ("enumfam.is_fc.busy_s", "s", "lower"),
    ("enumfam.verdict.fc", "count", "lower"),
    ("enumfam.verdict.nfc", "count", "lower"),
    ("enumfam.canon_per_decision", "ratio", "lower"),
    ("canon.canonical_form.calls", "count", "lower"),
    ("canon.canonical_form.busy_s", "s", "lower"),
    ("canon.symmetry.calls", "count", "lower"),
    ("canon.symmetry.busy_s", "s", "lower"),
    ("fcsolve.is_fc.calls", "count", "lower"),
    ("fcsolve.is_fc.busy_s", "s", "lower"),
    ("fcsolve.is_fc.self_s", "s", "lower"),
    ("fcsolve.is_fc.p50_s", "s", "lower"),
    ("fcsolve.rounds_per_decision", "ratio", "lower"),
    ("ratlp.lp_solve.calls", "count", "lower"),
    ("ratlp.lp_solve.busy_s", "s", "lower"),
    ("ratlp.lp_rows.max", "count", "lower"),
    ("ratlp.infeasible", "count", "lower"),
    ("sepip.build_separation.calls", "count", "lower"),
    ("sepip.build_separation.busy_s", "s", "lower"),
    ("sepip.violated.calls", "count", "lower"),
    ("sepip.violated.busy_s", "s", "lower"),
    ("sepip.proof.calls", "count", "lower"),
    ("sepip.proof.busy_s", "s", "lower"),
    ("sepip.violated_frac", "ratio", "higher"),
    ("sepip.optimal.calls", "count", "lower"),
    ("sepip.optimal.busy_s", "s", "lower"),
    ("verify.certificate.calls", "count", "lower"),
    ("verify.certificate.busy_s", "s", "lower"),
    ("verify.certificate.p50_s", "s", "lower"),
    ("verify.certificate.failed", "count", "lower"),
    ("verify.fc.calls", "count", "lower"),
    ("verify.nonfc.calls", "count", "lower"),
    ("verify.io.busy_s", "s", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Every PER_LAYER metric, from the spans of a traced run."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration

    def pick(name: str, pred: Callable[[Span], bool] = lambda s: True) -> list[Span]:
        return [s for s in spans if s.name == name and pred(s)]

    def busy(group: list[Span]) -> float:
        return sum((s.duration for s in group), 0.0)

    def median(group: list[Span]) -> float:
        return statistics.median(s.duration for s in group) if group else 0.0

    def self_s(group: list[Span]) -> float:
        return sum((s.duration - child_time[s.index] for s in group), 0.0)

    drivers = pick("enumfam.fc_value") + pick("enumfam.fcv_value")
    enum_isfc = pick("fcsolve.is_fc", lambda s: s.tag is not None and s.tag[0] == "enumfam")
    isfc = pick("fcsolve.is_fc")
    canon = pick("canon.canonical_form")
    sym = pick("canon.symmetry")
    lp = pick("ratlp.lp_solve")
    build = pick("sepip.build_separation")
    violated = pick("sepip.solve_separation", lambda s: s.tag == "violated")
    proof = pick("sepip.solve_separation", lambda s: s.tag == "proof")
    optimal = pick("sepip.optimal")
    certs = pick("verify.certificate")
    return {
        "trace.wall_s": wall_s,
        "enumfam.driver.self_s": self_s(drivers),
        "enumfam.is_fc.calls": len(enum_isfc),
        "enumfam.is_fc.busy_s": busy(enum_isfc),
        "enumfam.verdict.fc": sum(1 for s in enum_isfc if s.tag[1] == "fc"),
        "enumfam.verdict.nfc": sum(1 for s in enum_isfc if s.tag[1] == "non-fc"),
        "enumfam.canon_per_decision": _ratio(len(canon), len(enum_isfc)),
        "canon.canonical_form.calls": len(canon),
        "canon.canonical_form.busy_s": busy(canon),
        "canon.symmetry.calls": len(sym),
        "canon.symmetry.busy_s": busy(sym),
        "fcsolve.is_fc.calls": len(isfc),
        "fcsolve.is_fc.busy_s": busy(isfc),
        "fcsolve.is_fc.self_s": self_s(isfc),
        "fcsolve.is_fc.p50_s": median(isfc),
        "fcsolve.rounds_per_decision": _ratio(len(lp), len(isfc)),
        "ratlp.lp_solve.calls": len(lp),
        "ratlp.lp_solve.busy_s": busy(lp),
        "ratlp.lp_rows.max": max((s.tag[1] for s in lp), default=0),
        "ratlp.infeasible": sum(1 for s in lp if s.tag[0]),
        "sepip.build_separation.calls": len(build),
        "sepip.build_separation.busy_s": busy(build),
        "sepip.violated.calls": len(violated),
        "sepip.violated.busy_s": busy(violated),
        "sepip.proof.calls": len(proof),
        "sepip.proof.busy_s": busy(proof),
        "sepip.violated_frac": _ratio(len(violated), len(violated) + len(proof)),
        "sepip.optimal.calls": len(optimal),
        "sepip.optimal.busy_s": busy(optimal),
        "verify.certificate.calls": len(certs),
        "verify.certificate.busy_s": busy(certs),
        "verify.certificate.p50_s": median(certs),
        "verify.certificate.failed": sum(1 for s in certs if s.tag is None or not s.tag[1]),
        "verify.fc.calls": sum(1 for s in certs if s.tag is not None and s.tag[0] == "fc"),
        "verify.nonfc.calls": sum(1 for s in certs if s.tag is not None and s.tag[0] == "non-fc"),
        "verify.io.busy_s": busy(pick("verify.io")),
    }
