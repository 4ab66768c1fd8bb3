#!/usr/bin/env python3
"""Regenerate bench/pool.json, the family pools of the seeded workloads.

    python3 bench/make_pool.py            # about 12 minutes on 2 cores

Each pool is a fixed list of labeled families, drawn at random once with a
fixed seed and timed on the current code.  The families of each verdict
kind are sorted by time and cut into strata of equal size.  A pass of a
seeded workload takes one family from every stratum, chosen with the run's
seed, such that the pool's timings of the pass lie near its nominal time
(BALANCE in workloads.py).

Why strata: the time of one decision or check depends on the family and
even on its labeling, because the branch and bound breaks ties by bit mask.
Single families spread by a factor of five, so a plain random draw of a
dozen families gives a median that moves by a third from seed to seed.
One draw per stratum keeps the cost mix of every run the same, while the
families still change with the seed.

The timings order the pool and balance the draws.  Rebuilding the pool changes the
benchmark's inputs, so parent and change must then both be measured again.
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

from fcfam import Family, is_fc, lex_ksets, universe, verify_certificate  # noqa: E402
from fcfam.fcsolve import certificate_from_dict, certificate_to_dict  # noqa: E402

# (workload, scale) -> n, groups of (k, sizes m, families per size,
# strata per verdict kind)
SPECS = {
    ("decide-n7", "full"): (7, [(4, [10], 30, {"fc": 6}), (5, [14], 30, {"fc": 6})]),
    ("decide-n7", "smoke"): (5, [(3, [3], 2, {"fc": 1}), (4, [5], 1, {"fc": 1})]),
    ("certify-n6", "full"): (6, [(4, [5, 6, 7], 16, {"non-fc": 2, "fc": 6})]),
    ("certify-n6", "smoke"): (5, [(3, [2, 3], 2, {"non-fc": 1, "fc": 1})]),
}
TIMINGS = 2  # a family's cost is the least of this many timings


def draw_families(rng: random.Random, n: int, k: int, m: int, count: int) -> list[Family]:
    ksets = lex_ksets(n, k)
    out: list[Family] = []
    while len(out) < count:
        fam = Family.from_masks(n, rng.sample(ksets, m))
        if universe(fam) == (1 << n) - 1 and fam not in out:
            out.append(fam)
    return out


def cost(workload: str, fam: Family) -> tuple[float, str]:
    """Seconds the workload spends on one family, and the verdict."""
    t0 = time.perf_counter()
    cert = is_fc(fam, symmetry=True, warm_start=True)
    if workload == "certify-n6":
        back = certificate_from_dict(json.loads(json.dumps(certificate_to_dict(cert))))
        if not verify_certificate(back).passed:
            raise SystemExit(f"certificate of {fam} does not verify")
    return time.perf_counter() - t0, cert.kind


def build() -> dict:
    pools: dict = {}
    for (workload, scale), (n, groups) in SPECS.items():
        rng = random.Random(f"{workload}/{scale}")
        strata = []
        for k, sizes, per_size, kinds in groups:
            fams = [f for m in sizes for f in draw_families(rng, n, k, m, per_size)]
            timed = []
            for fam in fams:
                runs = [cost(workload, fam) for _ in range(TIMINGS)]
                timed.append((min(t for t, _ in runs), runs[0][1], fam.members))
            for kind, n_strata in kinds.items():
                ranked = sorted((t, members) for t, kd, members in timed if kd == kind)
                if len(ranked) < n_strata:
                    raise SystemExit(f"{workload}/{scale}: too few {kind} families")
                for i in range(n_strata):
                    chunk = ranked[i * len(ranked) // n_strata: (i + 1) * len(ranked) // n_strata]
                    strata.append({
                        "k": k,
                        "kind": kind,
                        "cost_s": [round(t, 3) for t, _ in chunk],
                        "families": [list(members) for _, members in chunk],
                    })
            print(f"{workload}/{scale} k={k}: {len(fams)} families timed",
                  file=sys.stderr, flush=True)
        # the nominal time of a pass, one family per stratum, on this machine
        pass_s = sum(sum(st["cost_s"]) / len(st["cost_s"]) for st in strata)
        pools.setdefault(workload, {})[scale] = {
            "n": n, "pass_s": round(pass_s, 3), "strata": strata}
    return pools


if __name__ == "__main__":
    path = os.path.join(BENCH_DIR, "pool.json")
    pools = build()
    text = json.dumps(pools, indent=1)
    # one line per list of numbers
    text = re.sub(r"\[[-\d.,\s]+\]", lambda m: json.dumps(json.loads(m.group())), text)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(f"wrote {path}", file=sys.stderr)
