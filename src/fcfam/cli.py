"""Command-line surface for batch runs.

Subcommands mirror the library drivers: `isfc` decides one family and
writes a certificate, `getnfc` / `fcvalue` / `lexscan` / `vfcvalue` run the
enumeration drivers, `upperbound` evaluates the closed-form bound,
`translates` builds and reports the torus families, `canon` / `orbits`
print canonical forms and element orbits, and `verify` replays a
certificate (exit 0 pass, 1 fail, 2 structural error).

Every command that decides more than one family decides it through
`enumfam.EnumSession.classify`, and `--time-limit` bounds each decision;
`getnfc -o` writes each Non-FC certificate as the enumeration yields it.
Every decision is warm-started, as `is_fc` is by default, so for a
canonical family over [n] and no `--v`, `isfc` without `--symmetry` writes
the certificate `getnfc -o` writes.  One report prints FC for `fcvalue`
and FC_V for `vfcvalue`.
Long computations report progress on stderr; results go to stdout or into
the output directory (flag -o or FCFAM_OUTPUT_DIR).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Optional

from . import enumfam, fcsolve, verify as verifymod
from .canon import canonical_form, orbits
from .fcsolve import CertificateError, certificate_to_dict, fc3_value, is_fc, upper_bound
from .setfam import (
    Family,
    compact_universe,
    format_family,
    no_singletons_family,
    parse_family,
    regularity,
    translates_family,
    universe,
)

OUTPUT_DIR_ENV = "FCFAM_OUTPUT_DIR"


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _read_family(path: str, ground_size: Optional[int] = None) -> Family:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_family(fh.read(), ground_size=ground_size)


def _load_family(path: str, v: Optional[str] = None) -> Family:
    """The family in path, compacted to its universe; a family with no
    elements is refused, and so is a domain spec v for a family that needs
    compacting, since V-FC is defined only for universe [n]."""
    fam = _read_family(path)
    if not universe(fam):
        raise ValueError("the family has no elements: its universe is empty")
    if universe(fam) != (1 << fam.n) - 1:
        compacted, elems = compact_universe(fam)
        if v is not None:
            raise ValueError(f"--v needs a family with universe [{fam.n}], "
                             f"but this one keeps only elements {list(elems)}")
        _progress(f"note: universe compacted to [{compacted.n}] (kept elements {list(elems)})")
        return compacted
    return fam


def _parse_domain(spec: Optional[str], n: int) -> Optional[Family]:
    if spec is None:
        return None
    if spec == "no-singletons":
        return no_singletons_family(n)
    return _read_family(spec, n)


def _out_path(args, default_name: str) -> Optional[str]:
    directory = getattr(args, "output", None) or os.environ.get(OUTPUT_DIR_ENV)
    if directory is None:
        return None
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, default_name)


def _positive_seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (0 < value < math.inf):
        raise argparse.ArgumentTypeError(f"not a positive number of seconds: {text!r}")
    return value


def _report(rep: enumfam.FcValueReport, name: str, not_fc: str, note: str = "") -> int:
    """Print a threshold run: its value, or why it has none, on stdout, and
    its witness and wall time on stderr.  Exit 1 when the levels read
    ended before the value."""
    head = f"{name}({rep.k},{rep.n})"
    if rep.status == "found":
        print(f"{head} = {rep.value}{note}")
        if rep.witness is not None:
            _progress(f"maximum witness ({rep.value - 1} sets, {not_fc}): {rep.witness}")
    elif rep.status == "undefined":
        print(f"{head} is undefined (the complete family is {not_fc})")
    else:  # "exhausted": counts end at the last level read
        print(f"{head} unresolved up to m = {max(m for _, m in rep.counts)}")
    _progress(f"wall time {rep.wall_time:.1f}s")
    return 1 if rep.status == "exhausted" else 0


def _cmd_isfc(args) -> int:
    fam = _load_family(args.family, args.v)
    domain = _parse_domain(args.v, fam.n)
    cert = is_fc(
        fam,
        symmetry=args.symmetry,
        domain=domain,
        deadline=time.monotonic() + args.time_limit if args.time_limit else None,
        progress=_progress,
    )
    out = args.out or _out_path(args, "certificate.json")
    if out:
        fcsolve.save_certificate(cert, out)
        _progress(f"certificate written to {out}")
    else:
        print(json.dumps(certificate_to_dict(cert), indent=1))
    _progress(f"verdict: {'FC' if cert.kind == 'fc' else 'Non-FC'}")
    return 0


def _cmd_getnfc(args) -> int:
    t0 = time.monotonic()
    cell = f"n{args.n}_k{args.k}_m{args.m}"
    fams: list[Family] = []
    cert_paths: list[str] = []
    with enumfam.EnumSession(args.jobs, progress=_progress, time_limit=args.time_limit) as session:
        candidates, _ = session.candidates(args.n, args.k, args.m)
        path = _out_path(args, f"nfc_{cell}.fam")
        # candidates lie over [n] sorted by members, so Non-FC families stream in sorted order
        for fam, cert in session.classify(candidates):
            if cert.kind == "fc":
                continue
            fams.append(fam)
            if path:
                cpath = os.path.join(os.path.dirname(path), f"nfc_{cell}_{len(fams)}.cert.json")
                fcsolve.save_certificate(cert, cpath)
                cert_paths.append(os.path.basename(cpath))
    elapsed = time.monotonic() - t0
    text_blocks = []
    for idx, fam in enumerate(fams):
        text_blocks.append(f"# family {idx + 1}\n" + format_family(fam))
    listing = "".join(text_blocks) if text_blocks else "# no Non-FC families\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(listing)
        manifest = {
            "n": args.n,
            "k": args.k,
            "m": args.m,
            "count": len(fams),
            "seconds": round(elapsed, 3),
            "families_file": os.path.basename(path),
            "certificates": cert_paths,
        }
        # written last: a directory without its manifest holds an interrupted run
        mpath = os.path.join(os.path.dirname(path), f"manifest_{cell}.json")
        with open(mpath, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1)
            fh.write("\n")
        _progress(f"{len(fams)} families written to {path}")
    else:
        sys.stdout.write(listing)
    return 0


def _cmd_fcvalue(args) -> int:
    rep = enumfam.fc_value(
        args.k,
        args.n,
        m_max=args.max_m,
        jobs=args.jobs,
        progress=_progress,
        time_limit=args.time_limit,
    )
    return _report(rep, "FC", "Non-FC")


def _cmd_lexscan(args) -> int:
    res = enumfam.lex_scan(args.k, args.n, progress=_progress, time_limit=args.time_limit)
    print(f"lexscan({args.k},{args.n}): first FC prefix has m = {res.m}")
    prefix_path = _out_path(args, f"lex_fc_k{args.k}_n{args.n}_m{res.m}.json")
    if prefix_path:
        fcsolve.save_certificate(res.prefix_fc, prefix_path)
        _progress(f"FC certificate written to {prefix_path}")
        if res.prev_nonfc is not None:
            prev_path = os.path.join(
                os.path.dirname(prefix_path), f"lex_nonfc_k{args.k}_n{args.n}_m{res.m - 1}.json"
            )
            fcsolve.save_certificate(res.prev_nonfc, prev_path)
            _progress(f"Non-FC certificate written to {prev_path}")
    if res.prev_nonfc is None:
        _progress("note: the previous prefix is FC over its smaller universe")
    return 0


def _cmd_vfcvalue(args) -> int:
    rep = enumfam.fcv_value(
        args.k,
        args.n,
        _parse_domain(args.v, args.n),
        jobs=args.jobs,
        progress=_progress,
        time_limit=args.time_limit,
    )
    return _report(rep, "FC_V", "not V-FC", f"  [V = {args.v}]")


def _cmd_upperbound(args) -> int:
    print(upper_bound(args.k, args.n, args.base_n, args.base_m))
    return 0


def _cmd_translates(args) -> int:
    residues = [int(tok) for tok in args.r.split(",")]
    fam = translates_family(args.n, residues)
    cells = args.n * args.n
    # every torus family is 3-uniform and regular of degree 6 (2 when
    # translates coincide) on n*n >= 16 cells, so the count bound applies
    print(
        f"FC by the regular 3-set count bound: degree {regularity(fam)}, "
        f"m = {len(fam.members)} >= FC(3,{cells}) = {fc3_value(cells)}"
    )
    path = _out_path(args, f"translates_n{args.n}.fam")
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_family(fam))
        _progress(f"family written to {path}")
    return 0


def _cmd_canon(args) -> int:
    sys.stdout.write(format_family(canonical_form(_read_family(args.family))))
    return 0


def _cmd_orbits(args) -> int:
    for orbit in orbits(_read_family(args.family)):
        print(",".join(map(str, orbit)))
    return 0


def _cmd_verify(args) -> int:
    try:
        cert = fcsolve.load_certificate(args.certificate)
    except (CertificateError, OSError, ValueError) as exc:
        print(f"structural error: {exc}", file=sys.stderr)
        return 2
    report = verifymod.verify_certificate(cert)
    print(report.summary())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcfam", description="Exact FC / V-FC decisions for union-closed set families"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, time_limit=True, jobs=False, output=True):
        if output:
            p.add_argument("-o", "--output", help="output directory")
        if time_limit:
            p.add_argument("--time-limit", type=_positive_seconds, help="seconds per isFC call")
        if jobs:
            p.add_argument("--jobs", type=int, default=1, help="worker processes")

    p = sub.add_parser("isfc", help="decide FC / V-FC for one family file")
    p.add_argument("family")
    p.add_argument("--symmetry", action="store_true")
    p.add_argument("--v", help='"no-singletons" or a family file for the domain V')
    p.add_argument("--out", help="certificate file (default: stdout)")
    add_common(p)
    p.set_defaults(func=_cmd_isfc)

    p = sub.add_parser("getnfc", help="enumerate Non-FC families of m k-sets over [n]")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    add_common(p, jobs=True)
    p.set_defaults(func=_cmd_getnfc)

    p = sub.add_parser("fcvalue", help="compute FC(k, n)")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--max-m", type=int)
    add_common(p, jobs=True, output=False)
    p.set_defaults(func=_cmd_fcvalue)

    p = sub.add_parser("lexscan", help="first FC lexicographic prefix")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_lexscan)

    p = sub.add_parser("vfcvalue", help="compute FC_V(k, n)")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--v", default="no-singletons", help='"no-singletons" or a family file')
    add_common(p, jobs=True, output=False)
    p.set_defaults(func=_cmd_vfcvalue)

    p = sub.add_parser("upperbound", help="closed-form FC upper bound")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--base-n", type=int, required=True)
    p.add_argument("--base-m", type=int, required=True)
    p.set_defaults(func=_cmd_upperbound)

    p = sub.add_parser("translates", help="torus translate family and its FC status")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--r", required=True, help="three residues, e.g. 0,1,2")
    add_common(p, time_limit=False)
    p.set_defaults(func=_cmd_translates)

    p = sub.add_parser("canon", help="print the canonical form of a family")
    p.add_argument("family")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("orbits", help="print automorphism orbits of the ground elements")
    p.add_argument("family")
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("verify", help="re-verify a certificate file")
    p.add_argument("certificate")
    p.set_defaults(func=_cmd_verify)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except TimeoutError as exc:  # an OSError, so it must come first
        print(f"timeout: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
