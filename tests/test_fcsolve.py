import ast
import dataclasses
import functools
import importlib.util
import json
import math
import operator
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fcfam.canon
import fcfam.enumfam
import fcfam.fcsolve
from fcfam.canon import apply_perm_family, family_orbit, generating_set, orbits
from fcfam.enumfam import fc_value
from fcfam.setfam import (
    Family,
    bits,
    frequencies,
    lex_ksets,
    no_singletons_family,
    powerset_family,
    union_closure,
)
from fcfam.ratlp import Infeasible, LinearProgram, check_farkas
from fcfam.sepip import SeparationResult, brute_separation, build_separation
from fcfam.fcsolve import (
    FcCertificate,
    NonFcCertificate,
    certificate_from_dict,
    certificate_to_dict,
    fc3_value,
    frac_str,
    is_fc,
    upper_bound,
)
from fcfam.verify import verify_certificate

from test_bench_spans import SPANS
from test_golden_certificates import K4_N6
from oracles import (
    avoiding_cut,
    barycenter_ruled_out,
    brute_poonen_fc,
    family_value,
    fraction_nonfc_certificate,
    random_family,
    warm_start_cuts,
)


class TestKnownDecisions:
    def test_two_set_is_fc(self):
        cert = is_fc(Family.from_sets(2, [[1, 2]]))
        assert isinstance(cert, FcCertificate)
        # the weights themselves are checked against the exhaustive oracle
        base = union_closure(Family.from_sets(2, [[1, 2]]))
        assert brute_separation(base, cert.weights, powerset_family(2)).optimum <= 0

    def test_three_set_is_non_fc(self):
        cert = is_fc(Family.from_sets(3, [[1, 2, 3]]))
        assert isinstance(cert, NonFcCertificate)

    def test_five_set_generators_no_singleton_v6(self):
        v = no_singletons_family(6)
        fc = is_fc(
            Family.from_sets(6, [[1, 2, 3, 4, 5], [1, 2, 3, 4, 6], [1, 2, 3, 5, 6]]),
            domain=v,
        )
        assert isinstance(fc, FcCertificate)
        nonfc = is_fc(Family.from_sets(6, [[1, 2, 3, 4, 5], [1, 2, 3, 4, 6]]), domain=v)
        assert isinstance(nonfc, NonFcCertificate)

    def test_universe_must_be_full(self):
        with pytest.raises(ValueError, match="compact"):
            is_fc(Family.from_sets(3, [[1, 2]]))

    def test_ground_cap(self):
        with pytest.raises(ValueError, match="cap"):
            is_fc(Family.from_sets(9, [list(range(1, 10))]))

    def test_invalid_domain(self):
        with pytest.raises(ValueError, match="union"):
            is_fc(
                Family.from_sets(2, [[1, 2]]),
                domain=Family.from_masks(2, (0, 1)),
            )

    def test_invalid_domain_raises_before_the_first_lp(self, monkeypatch):
        # {1} u {2} is missing from the domain.  The warm-start cuts over it
        # are already infeasible, so a domain checked only when the separation
        # is built would get a Non-FC verdict from the first LP.
        def refuse(lp):
            raise AssertionError("an invalid domain reached the LP")

        monkeypatch.setattr(fcfam.fcsolve, "lp_solve", refuse)
        dom = Family.from_masks(4, [m for m in range(16) if m != 0b0011])
        with pytest.raises(ValueError, match="not union-closed"):
            is_fc(Family.from_sets(4, [[1, 2, 3], [1, 2, 4]]), warm_start=True, domain=dom)

    def test_deadline_raises(self):
        import time

        with pytest.raises(TimeoutError):
            is_fc(Family.from_sets(4, [[1, 2, 3], [2, 3, 4]]), deadline=time.monotonic() - 1)


class TestInvariants:
    """A broken invariant of the cutting-plane loop raises RuntimeError, also
    under python -O."""

    def test_stored_cut_returned_again_raises(self, monkeypatch):
        fam = Family.from_sets(2, [[1, 2]])
        again = SeparationResult(Fraction(1), union_closure(fam))
        monkeypatch.setattr(fcfam.fcsolve, "solve_separation",
                            lambda prob, point, deadline=None: again)
        with pytest.raises(RuntimeError, match="already stored"):
            is_fc(fam)

    def test_raises_under_optimize(self):
        # without the check the loop would re-solve the same LP forever
        code = (
            "from fractions import Fraction\n"
            "import fcfam.fcsolve as f\n"
            "from fcfam.sepip import SeparationResult\n"
            "from fcfam.setfam import Family, union_closure\n"
            "fam = Family.from_sets(2, [[1, 2]])\n"
            "again = SeparationResult(Fraction(1), union_closure(fam))\n"
            "f.solve_separation = lambda prob, point, deadline=None: again\n"
            "try:\n"
            "    f.is_fc(fam)\n"
            "except RuntimeError:\n"
            "    print('raised')\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "raised"


    def test_no_assert_guards_a_result(self):
        # python -O strips assert statements, so none may stand in src/
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "src", "fcfam")
        found = []
        for name in sorted(os.listdir(src)):
            if name.endswith(".py"):
                with open(os.path.join(src, name), encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), name)
                found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                          if isinstance(node, ast.Assert)]
        assert found == []

    def test_no_module_imports_a_name_it_never_uses(self):
        # the one exception: a name bench/spans.py wraps by attribute lookup
        # on the module (the package's __init__ only re-exports)
        spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        wrapped = set()

        class Recorder:
            def wrap(self, module, attr, *_):
                wrapped.add((module.__name__, attr))

        spans.wrap_layers(Recorder(), fcfam)
        assert ("fcfam.fcsolve", "automorphism_group") in wrapped
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "src", "fcfam")
        unused = []
        for name in sorted(os.listdir(src)):
            if not name.endswith(".py") or name == "__init__.py":
                continue
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            imported = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            module = f"fcfam.{name[:-3]}"
            unused += [f"{name}:{line} {bound}" for bound, line in imported.items()
                       if bound not in used and (module, bound) not in wrapped]
        assert unused == []

    def test_every_private_helper_has_a_reader(self):
        # a private module-level function or class, or a private method, must
        # be named somewhere in the package outside its own definition
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "src", "fcfam")
        trees = {}
        for name in sorted(os.listdir(src)):
            if name.endswith(".py"):
                with open(os.path.join(src, name), encoding="utf-8") as fh:
                    trees[name] = ast.parse(fh.read(), name)

        def private(node):
            return (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__"))

        helpers = []
        for name, tree in trees.items():
            for node in tree.body:
                if private(node):
                    helpers.append((name, node))
                if isinstance(node, ast.ClassDef):
                    helpers += [(name, item) for item in node.body if private(item)]
        unread = []
        for name, helper in helpers:
            inside = {id(node) for node in ast.walk(helper)}
            readers = [node for tree in trees.values() for node in ast.walk(tree)
                       if id(node) not in inside
                       and ((isinstance(node, ast.Name) and node.id == helper.name)
                            or (isinstance(node, ast.Attribute) and node.attr == helper.name))]
            if not readers:
                unread.append(f"{name}:{helper.lineno} {helper.name}")
        assert len(helpers) > 40
        assert unread == []

    def test_every_parameter_is_read(self):
        # a parameter of a function or lambda in src/fcfam must be named in
        # its body; a dunder other than __init__ takes what its protocol
        # passes, read or not (EnumSession.__exit__)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "src", "fcfam")
        unread, functions = [], 0
        for name in sorted(os.listdir(src)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            for node in ast.walk(tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                label = getattr(node, "name", "<lambda>")
                if label.startswith("__") and label.endswith("__") and label != "__init__":
                    continue
                functions += 1
                args = node.args
                params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                          + [args.vararg, args.kwarg] if a is not None]
                body = node.body if isinstance(node.body, list) else [node.body]
                read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
                unread += [f"{name}:{node.lineno} {label}({p})" for p in params if p not in read]
        assert functions > 100
        assert unread == []

    def test_private_names_reached_across_modules(self):
        # a private name stays in its module; sepip's flow kernel, which the
        # checker replays, is the only one another module imports, so a new
        # reach fails here
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "src", "fcfam")
        reached = []
        for name in sorted(os.listdir(src)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            modules = {}  # local name -> sibling module, for `from . import x`
            for node in ast.walk(tree):
                if not isinstance(node, ast.ImportFrom):
                    continue
                if node.level == 1 and node.module is None:
                    modules.update((a.asname or a.name, a.name) for a in node.names)
                elif node.level == 1 or (node.module or "").startswith("fcfam"):
                    source = node.module.split(".")[-1]
                    reached += [f"{name}: {source}.{a.name}" for a in node.names
                                if a.name.startswith("_")]
            reached += [f"{name}: {modules[node.value.id]}.{node.attr}"
                        for node in ast.walk(tree)
                        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id in modules and node.attr.startswith("_")]
        assert sorted(reached) == ["verify.py: sepip._max_flow"]

    def test_checker_takes_from_the_producer_only_the_flow_kernel(self):
        # verify imports from sepip the leaf marker, the flow kernel it
        # replays and the names bench/spans.py wraps on it, nothing else:
        # the producer's value formula, `weigher`, stays out of the checker
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

        def parse(*parts):
            with open(os.path.join(root, *parts), encoding="utf-8") as fh:
                return ast.parse(fh.read())

        imported = []
        for node in ast.walk(parse("src", "fcfam", "verify.py")):
            if isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
                assert "sepip" not in names
                if (node.module or "").split(".")[-1] == "sepip":
                    imported += names
            elif isinstance(node, ast.Import):
                assert not any(a.name.endswith("sepip") for a in node.names)
        wrapped = [node.args[1].value for node in ast.walk(parse("bench", "spans.py"))
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "wrap" and isinstance(node.args[0], ast.Name)
                   and node.args[0].id == "verify"]
        assert sorted(wrapped) == ["brute_separation", "build_separation", "solve_separation"]
        assert sorted(imported) == sorted(["LEAF", "_max_flow", *wrapped])

    def test_checker_takes_from_the_decider_only_the_certificate_types(self):
        # verify reads the certificate classes from fcsolve and nothing that
        # decides, parses or enumerates: not `_rational`, not `check_farkas`,
        # not canon, ratlp, enumfam or cli
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "src", "fcfam", "verify.py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imported = {}  # module -> names imported from it
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                module = getattr(node, "module", None) or ""
                for a in node.names:
                    # `from . import x`, `from fcfam import x` and `import fcfam.x` import x
                    source = a.name if module in ("", "fcfam") else module
                    imported.setdefault(source.split(".")[-1], []).append(a.name)
        assert sorted(imported["fcsolve"]) == ["Certificate", "FcCertificate", "NonFcCertificate"]
        assert not {"canon", "ratlp", "enumfam", "cli"} & set(imported)

    def test_one_lowest_set_bit_loop(self):
        # `x & -x` lists set bits in setfam.bits; the other two uses are
        # Gosper's step and the reference oracle, so a new one fails here
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "src", "fcfam")

        def lowest_bit(node):
            return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
                    and any(isinstance(neg, ast.UnaryOp) and isinstance(neg.op, ast.USub)
                            and ast.dump(neg.operand) == ast.dump(other)
                            for neg, other in ((node.right, node.left),
                                               (node.left, node.right))))

        found = set()
        for name in sorted(os.listdir(src)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            for func in ast.walk(tree):
                if isinstance(func, ast.FunctionDef):
                    found |= {f"{name[:-3]}.{func.name}" for node in ast.walk(func)
                              if lowest_bit(node)}
        assert sorted(found) == ["canon._distinct_bound", "sepip.brute_separation",
                                 "setfam.bits"]


class TestClosedForms:
    def test_fc3_values(self):
        assert [fc3_value(n) for n in (4, 7, 10)] == [3, 4, 6]
        with pytest.raises(ValueError):
            fc3_value(3)

    def test_upper_bound_known_values(self):
        assert upper_bound(4, 9, 8, 12) == 21
        assert upper_bound(5, 8, 7, 14) == 36
        assert upper_bound(6, 9, 8, 26) == 76

    def test_upper_bound_stays_below_binomial(self):
        rng = random.Random(3)
        for _ in range(100):
            k = rng.randint(3, 6)
            n0 = rng.randint(k, k + 4)
            n = rng.randint(n0 + 1, n0 + 5)
            m0 = rng.randint(1, math.comb(n0, k))
            assert upper_bound(k, n, n0, m0) <= math.comb(n, k)

    def test_upper_bound_preconditions(self):
        with pytest.raises(ValueError):
            upper_bound(3, 5, 5, 2)
        with pytest.raises(ValueError):
            upper_bound(4, 9, 8, math.comb(8, 4) + 1)


class TestSymmetryReduce:
    def test_transitive_family_gives_one_variable_lps(self, monkeypatch):
        # Aut of all 3-subsets of [6] is S_6: one orbit, so every LP has one
        # variable, sum(c) = 1 (doubled, as every row is) weighs it by the
        # orbit size, and the lifted weights are constant
        lps = count_calls(monkeypatch, fcfam.fcsolve, "lp_solve")
        cert = is_fc(Family.from_masks(6, lex_ksets(6, 3)), symmetry=True)
        assert cert.kind == "fc" and lps
        for (lp,) in lps:
            assert lp.num_vars == 1
            assert lp.eq_rows == [((12,), 2)]
        assert cert.weights == (Fraction(1, 6),) * 6
        assert verify_certificate(cert).passed

    def test_decisions_never_list_the_group(self, monkeypatch):
        def refuse(family):
            raise AssertionError("a decision listed the automorphism group")

        monkeypatch.setattr(fcfam.fcsolve, "automorphism_group", refuse)
        monkeypatch.setattr(fcfam.canon, "automorphism_group", refuse)
        fams = [
            Family.from_masks(6, lex_ksets(6, 3)),  # all 3-subsets of [6]: |G| = 720
            Family.from_sets(4, [[1, 2], [3, 4]]),
            Family.from_sets(5, [[1, 2, 3], [3, 4, 5]]),  # Non-FC
            Family.from_sets(6, [[1, 2, 3], [3, 4, 5], [1, 5, 6]]),
        ]
        for fam in fams:
            assert is_fc(fam, symmetry=True).kind == is_fc(fam).kind

    def test_warm_start_is_one_row_per_orbit(self, monkeypatch):
        # K4_N6 has two element orbits, {1, 2, 5, 6} and {3, 4}: one
        # warm-start cut for each
        fam = Family.from_sets(6, K4_N6)
        lp = first_lp(monkeypatch, fam, symmetry=True, warm_start=True)
        assert lp.num_vars == len(lp.ge_rows) == len(orbits(union_closure(fam))) < fam.n

    def test_nonfc_cuts_closed_under_the_group(self):
        # every generator maps the certificate's cuts onto themselves, each
        # cut keeping its multiplier: every orbit image is listed
        fam = Family.from_sets(6, [[1, 2, 3, 4], [1, 2, 5, 6], [3, 4, 5, 6]])
        cert = is_fc(fam, symmetry=True)
        assert cert.kind == "non-fc"
        gens = generating_set(union_closure(fam))
        assert gens
        mult = dict(zip(cert.cuts, cert.multipliers))
        assert len(mult) == len(cert.cuts)
        for g in gens:
            assert {apply_perm_family(g, cut): y for cut, y in mult.items()} == mult


def certify_n6_nonfc():
    """The Non-FC families of the certify-n6 pool."""
    pool = json.loads((Path(__file__).parent.parent / "bench" / "pool.json").read_text())
    p = pool["certify-n6"]["full"]
    return [Family(p["n"], tuple(members)) for stratum in p["strata"]
            if stratum["kind"] == "non-fc" for members in stratum["families"]]


def read_every_decision(monkeypatch):
    """Make each decision of an enumeration driver read its certificate, so
    that a Non-FC certificate is built as soon as it is decided."""
    decide = fcfam.enumfam.is_fc

    def reading(*args, **kwargs):
        cert = decide(*args, **kwargs)
        certificate_to_dict(cert)
        return cert

    monkeypatch.setattr(fcfam.enumfam, "is_fc", reading)


class TestNonFcNormalization:
    """`_build_nonfc` normalizes the LP's integer multipliers in integers;
    `oracles.fraction_nonfc_certificate` does it in `Fraction` arithmetic."""

    @pytest.mark.parametrize("symmetry", [False, True], ids=["plain", "symmetry"])
    def test_integers_match_fractions(self, monkeypatch, symmetry):
        built = []
        real = fcfam.fcsolve._build_nonfc

        def recording(n, cuts, gens, farkas):
            fields = real(n, cuts, gens, farkas)
            built.append(((n, list(cuts), gens, farkas), fields))
            return fields

        monkeypatch.setattr(fcfam.fcsolve, "_build_nonfc", recording)
        read_every_decision(monkeypatch)
        # the Non-FC decisions of FC(4,6) and of the certify-n6 pool
        fc_value(4, 6, symmetry=symmetry)
        for fam in certify_n6_nonfc():
            cert = is_fc(fam, symmetry=symmetry)
            assert cert.kind == "non-fc"
            certificate_to_dict(cert)
        assert len(built) > 20
        shared = 0
        for args, fields in built:
            assert fields == fraction_nonfc_certificate(*args)
            # the images of each stored cut share one multiplier
            n, cuts, gens, _ = args
            cert_cuts, multipliers, _ = fields
            mult = dict(zip(cert_cuts, multipliers))
            for cut in cuts:
                images = family_orbit(Family(n, tuple(bits(cut))), gens) if gens else []
                assert len({mult[img] for img in images}) <= 1
                shared += len(images) > 1
        assert (shared > 0) == symmetry

    @pytest.mark.parametrize("symmetry", [False, True], ids=["plain", "symmetry"])
    def test_certificate_is_scale_free(self, monkeypatch, symmetry):
        # a positive multiple of a Farkas certificate is one too: lp_solve's
        # multipliers are ints, check_farkas takes k (y, lambda) for k > 0 and
        # refuses the negation and a negative >=-multiplier, and _build_nonfc
        # makes the same certificate from every positive multiple
        built = []
        solve, build = fcfam.fcsolve.lp_solve, fcfam.fcsolve._build_nonfc

        def solved(lp):
            res = solve(lp)
            built.append([LinearProgram(lp.num_vars, lp.eq_rows, lp.ge_rows), res])
            return res

        def building(*args):
            fields = build(*args)
            built[-1].append((args[:-1], fields))
            return fields

        monkeypatch.setattr(fcfam.fcsolve, "lp_solve", solved)
        monkeypatch.setattr(fcfam.fcsolve, "_build_nonfc", building)
        # each certificate is built before the next decision's first LP, and
        # recorded beside its fields
        read_every_decision(monkeypatch)
        reading = fcfam.enumfam.is_fc

        def recorded(*args, **kwargs):
            cert = reading(*args, **kwargs)
            if cert.kind == "non-fc":
                built[-1].append(cert)
            return cert

        monkeypatch.setattr(fcfam.enumfam, "is_fc", recorded)
        fc_value(4, 6, symmetry=symmetry)
        built = [entry for entry in built if isinstance(entry[1], Infeasible)]
        assert len(built) > 10
        for lp, res, (args, fields), cert in built:
            assert (cert.cuts, cert.multipliers, cert.lam) == fields
            ge, eq = res.ge_multipliers, res.eq_multipliers
            assert all(type(y) is int for y in ge + eq)
            for k in (1, 2, 7):
                scaled = Infeasible(tuple(k * y for y in ge), tuple(k * y for y in eq))
                assert check_farkas(lp, scaled)
                assert build(*args, scaled) == fields
            assert not check_farkas(lp, Infeasible(tuple(-y for y in ge), tuple(-y for y in eq)))
            for i, y in enumerate(ge):
                negative = ge[:i] + (-max(y, 1),) + ge[i + 1:]
                assert not check_farkas(lp, Infeasible(negative, eq))
            assert verify_certificate(cert).passed


class TestPendingCertificate:
    """A Non-FC verdict returns its certificate pending: `_build_nonfc` runs
    when `cuts`, `multipliers` or `lam` is first read."""

    @staticmethod
    def recording(monkeypatch):
        built = []
        real = fcfam.fcsolve._build_nonfc

        def build(*args):
            built.append(real(*args))
            return built[-1]

        monkeypatch.setattr(fcfam.fcsolve, "_build_nonfc", build)
        return built

    def test_fc_value_builds_only_what_is_read(self, monkeypatch):
        built = self.recording(monkeypatch)
        decided = []
        decide = fcfam.enumfam.is_fc

        def counting(*args, **kwargs):
            decided.append(decide(*args, **kwargs))
            return decided[-1]

        monkeypatch.setattr(fcfam.enumfam, "is_fc", counting)
        rep = fc_value(5, 7, 11)
        assert sum(cert.kind == "non-fc" for cert in decided) == len(decided) == 669
        assert built == []
        assert rep.witness == rep.witness_certificate.family
        assert built == []
        cert = rep.witness_certificate
        first = certificate_to_dict(cert)
        assert built == [(cert.cuts, cert.multipliers, cert.lam)]
        assert certificate_to_dict(cert) == first
        assert verify_certificate(cert).passed
        assert built == [(cert.cuts, cert.multipliers, cert.lam)]

    @pytest.mark.parametrize("symmetry", [False, True], ids=["plain", "symmetry"])
    def test_pending_equals_eager(self, monkeypatch, symmetry):
        built = self.recording(monkeypatch)
        fams = certify_n6_nonfc()
        assert len(fams) > 5
        for fam in fams:
            eager = is_fc(fam, symmetry=symmetry)
            expected = certificate_to_dict(eager)
            plain = NonFcCertificate(eager.family, eager.n, eager.domain, eager.cuts,
                                     eager.multipliers, eager.lam)
            assert is_fc(fam, symmetry=symmetry) == eager == plain
            assert certificate_to_dict(dataclasses.replace(is_fc(fam, symmetry=symmetry))) \
                == expected
            changed = dataclasses.replace(is_fc(fam, symmetry=symmetry), lam=eager.lam + 1)
            assert (changed.cuts, changed.multipliers) == (eager.cuts, eager.multipliers)
            assert not verify_certificate(changed).passed
            count = len(built)
            sent = pickle.loads(pickle.dumps(is_fc(fam, symmetry=symmetry)))
            assert len(built) == count
            assert certificate_to_dict(sent) == expected
            assert len(built) == count + 1
            again = pickle.loads(pickle.dumps(sent))
            assert certificate_to_dict(again) == expected
            assert len(built) == count + 1
            assert verify_certificate(sent).passed

    def test_broken_farkas_data_fails_on_read(self, monkeypatch):
        pending = []
        real = NonFcCertificate.pending.__func__

        def recording(cls, *args):
            pending.append(args)
            return real(cls, *args)

        monkeypatch.setattr(NonFcCertificate, "pending", classmethod(recording))
        fam = certify_n6_nonfc()[0]
        assert is_fc(fam).kind == "non-fc"
        family, domain, cuts, gens, farkas = pending[0]
        # the negated multipliers aggregate to a negative right side
        negated = Infeasible(tuple(-y for y in farkas.ge_multipliers),
                             tuple(-y for y in farkas.eq_multipliers))
        broken = NonFcCertificate.pending(family, domain, cuts, gens, negated)
        assert (broken.family, broken.n, broken.domain) == (fam, fam.n, None)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="nonpositive right side"):
                broken.multipliers
        with pytest.raises(RuntimeError, match="nonpositive right side"):
            certificate_to_dict(broken)
        with pytest.raises(AttributeError):
            broken.weights


def asymmetric_domain(n, drop, closure):
    """P([n]) minus the sets in drop that are not in the closure, or None
    when that is not union-closed."""
    dom = Family.from_masks(n, (m for m in range(1 << n)
                                if m not in drop or m in closure.members))
    return dom if union_closure(dom) == dom else None


class TestSymmetryOverADomain:
    """With a caller's domain the LP's group lies in the part of Aut(<A>)
    that fixes the domain, so the verdict does not depend on symmetry."""

    def test_domain_breaks_the_symmetry(self):
        # transposing 3 and 4 fixes <A> but not D = P([5]) minus {3}, {4}
        fam = Family.from_sets(5, [[1, 3, 4], [2, 4, 5]])
        dom = asymmetric_domain(5, {1 << 2, 1 << 3}, union_closure(fam))
        assert dom is not None
        for warm in (False, True):
            off = is_fc(fam, domain=dom, warm_start=warm)
            on = is_fc(fam, symmetry=True, domain=dom, warm_start=warm)
            assert off.kind == on.kind == "fc"
            assert verify_certificate(on).passed

    def test_symmetry_on_and_off_agree(self):
        rng = random.Random(20)
        checked = 0
        while checked < 40:
            n = rng.randint(4, 6)
            ksets = lex_ksets(n, rng.randint(2, n - 1))
            fam = Family.from_masks(n, rng.sample(ksets, rng.randint(2, min(5, len(ksets)))))
            if functools.reduce(operator.or_, fam.members) != (1 << n) - 1:
                continue
            drop = set(rng.sample(range(1, 1 << n), rng.randint(1, 4)))
            dom = asymmetric_domain(n, drop, union_closure(fam))
            if dom is None:
                continue
            warm = rng.random() < 0.5
            on = is_fc(fam, symmetry=True, domain=dom, warm_start=warm)
            assert on.kind == is_fc(fam, domain=dom, warm_start=warm).kind, (fam, dom)
            assert verify_certificate(on).passed, (fam, dom)
            checked += 1


class TestLoopProperties:
    def test_symmetry_and_warm_start_do_not_change_verdicts(self):
        rng = random.Random(8)
        fams = []
        while len(fams) < 12:
            fam = random_family(rng, max_n=4, max_members=4)
            full = (1 << fam.n) - 1
            fam = Family.from_masks(fam.n, fam.members + (full,))
            fams.append(fam)
        for fam in fams:
            kinds = {
                is_fc(fam, symmetry=s, warm_start=w).kind
                for s in (False, True)
                for w in (False, True)
            }
            assert len(kinds) == 1, fam

    def test_verdict_matches_definitional_oracle(self):
        rng = random.Random(13)
        for _ in range(25):
            fam = random_family(rng, max_n=4, max_members=5)
            full = (1 << fam.n) - 1
            fam = Family.from_masks(fam.n, fam.members + (full,))
            cert = is_fc(fam)
            assert (cert.kind == "fc") == brute_poonen_fc(fam), fam

    def test_fc_inherited_by_supersets(self):
        rng = random.Random(21)
        found = 0
        while found < 6:
            fam = random_family(rng, max_n=4, max_members=4)
            full = (1 << fam.n) - 1
            fam = Family.from_masks(fam.n, fam.members + (full,))
            if is_fc(fam).kind != "fc":
                continue
            found += 1
            extra = rng.randrange(1 << fam.n)
            bigger = Family.from_masks(fam.n, fam.members + (extra,))
            assert is_fc(bigger).kind == "fc"

    def test_certificates_always_verify(self):
        rng = random.Random(34)
        for _ in range(20):
            fam = random_family(rng, max_n=5, max_members=4)
            full = (1 << fam.n) - 1
            fam = Family.from_masks(fam.n, fam.members + (full,))
            cert = is_fc(fam, symmetry=bool(rng.random() < 0.5), warm_start=bool(rng.random() < 0.5))
            assert verify_certificate(cert).passed


class TestCertificateFormat:
    def test_frac_str(self):
        assert frac_str(Fraction(0)) == "0/1"
        assert frac_str(Fraction(1, 3)) == "1/3"
        assert frac_str(Fraction(-7, 2)) == "-7/2"

    def _roundtrip(self, cert):
        data = certificate_to_dict(cert)
        again = certificate_from_dict(data)
        assert certificate_to_dict(again) == data
        return data

    def test_fc_schema(self):
        cert = is_fc(Family.from_sets(2, [[1, 2]]))
        data = self._roundtrip(cert)
        assert data["kind"] == "fc"
        assert data["domain"] == "full"
        assert all("/" in w for w in data["weights"])
        assert "farkas" not in data

    def test_nonfc_schema(self):
        cert = is_fc(Family.from_sets(3, [[1, 2, 3]]))
        data = self._roundtrip(cert)
        assert data["kind"] == "non-fc"
        assert len(data["farkas"]["multipliers"]) == len(data["cuts"])
        assert "weights" not in data
        # cuts sorted by family normal form
        keys = [sorted(tuple(sorted(m)) for m in fam) for fam in data["cuts"]]
        masks = [
            sorted(sum(1 << (e - 1) for e in member) for member in fam)
            for fam in data["cuts"]
        ]
        assert masks == sorted(masks)

    def test_domain_serialized(self):
        v = no_singletons_family(3)
        cert = is_fc(Family.from_sets(3, [[1, 2, 3]]), domain=v)
        data = self._roundtrip(cert)
        assert data["domain"] != "full"
        assert sorted(map(len, data["domain"])) == [0, 2, 2, 2, 3]

    @pytest.mark.parametrize("n, where, value", [
        (3, "n", 3.7),  # int(3.7) == 3
        (3, "n", "3"),
        (1, "n", True),  # int(True) == 1
        (3, "lambda", -14.0),  # the value stored, as a float
        (2, "weights", [0.5, 0.5]),
        # a boolean element: 1 <= True <= n holds
        (3, "family", [[True, 2, 3]]),
        (3, "domain", [[], [True], [2], [True, 2], [3], [True, 3], [2, 3], [True, 2, 3]]),
        (3, "cuts", [[[], [True], [2], [1, 2], [1, 2, 3]], [[], [1], [3], [1, 3], [1, 2, 3]],
                     [[], [2], [3], [2, 3], [1, 2, 3]]]),
    ], ids=["n-float", "n-string", "n-bool", "lambda-float", "weights-float",
            "family-bool", "domain-bool", "cut-bool"])
    def test_field_types_rejected(self, n, where, value, tmp_path, capsys):
        """A float, a string or a boolean where the format wants an integer,
        a boolean or an exact rational is refused, and so is a boolean
        element of a family, a domain or a cut.  Read leniently, each of
        these edits of the certificate of {[n]} (Non-FC for n = 3, FC for
        n = 1, 2) would load and verify."""
        from fcfam.cli import dispatch
        from fcfam.fcsolve import CertificateError

        data = certificate_to_dict(is_fc(Family.from_sets(n, [range(1, n + 1)])))
        if where == "lambda":
            data["farkas"]["lambda"] = value
        else:
            data[where] = value
        with pytest.raises(CertificateError):
            certificate_from_dict(data)
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(data))
        assert dispatch(["verify", str(path)]) == 2
        assert "structural error" in capsys.readouterr().err

    def test_malformed_rejected(self):
        from fcfam.fcsolve import CertificateError

        cert = is_fc(Family.from_sets(2, [[1, 2]]))
        data = certificate_to_dict(cert)
        del data["weights"]
        with pytest.raises(CertificateError):
            certificate_from_dict(data)
        data2 = certificate_to_dict(cert)
        data2["kind"] = "bogus"
        with pytest.raises(CertificateError):
            certificate_from_dict(data2)


class FirstLp(Exception):
    pass


def first_lp(monkeypatch, family, **options):
    """The first LP that is_fc builds, which it does not get to solve."""
    lps = []

    def stop(lp):
        lps.append(lp)
        raise FirstLp

    monkeypatch.setattr(fcfam.fcsolve, "lp_solve", stop)
    with pytest.raises(FirstLp):
        is_fc(family, **options)
    return lps[0]


def lp_row(cut, oid=None):
    """The LP row of a cut, counted from its members and doubled: twice its
    element counts summed over the orbits oid (default: every element its
    own orbit), and |B|."""
    counts = frequencies(cut).counts
    oid = oid or tuple(range(cut.n))
    out = [0] * (max(oid) + 1)
    for i, c in enumerate(counts):
        out[oid[i]] += 2 * c
    return tuple(out), len(cut.members)


class TestWarmStart:
    def test_first_cuts_are_the_union_products(self, monkeypatch):
        rng = random.Random(11)
        kinds = {"full": 0, "no-singletons": 0, "random": 0}
        for _ in range(80):
            n = rng.randint(1, 6)
            full = (1 << n) - 1
            masks = rng.sample(range(1, full + 1), rng.randint(1, min(5, full)))
            rest = full & ~functools.reduce(operator.or_, masks)
            fam = Family.from_masks(n, masks + [rest] if rest else masks)
            closure = union_closure(fam)
            extra = tuple(rng.randrange(full + 1) for _ in range(rng.randint(0, 4)))
            domains = {"full": None,
                       "random": union_closure(Family.from_masks(n, closure.members + extra))}
            if all(m & (m - 1) for m in closure.members[1:]):
                domains["no-singletons"] = no_singletons_family(n)
            for kind, dom in domains.items():
                lp = first_lp(monkeypatch, fam, warm_start=True, domain=dom)
                cuts = warm_start_cuts(fam, dom or powerset_family(n))
                assert lp.ge_rows == [lp_row(cut) for cut in cuts], (fam, kind)
                kinds[kind] += 1
        assert min(kinds.values()) >= 10, kinds


def restricted_domains(rng, count):
    """count random (family, domain) pairs over [4] to [6]: the family's
    k-sets cover [n], and the domain is an `asymmetric_domain` draw or, when
    the closure holds no singleton, the no-singletons domain."""
    out = []
    while len(out) < count:
        n = rng.randint(4, 6)
        ksets = lex_ksets(n, rng.randint(2, n - 1))
        fam = Family.from_masks(n, rng.sample(ksets, rng.randint(2, min(5, len(ksets)))))
        if functools.reduce(operator.or_, fam.members) != (1 << n) - 1:
            continue
        closure = union_closure(fam)
        if rng.random() < 0.5:
            drop = set(rng.sample(range(1, 1 << n), rng.randint(1, 4)))
            dom = asymmetric_domain(n, drop, closure)
        elif all(m & (m - 1) for m in closure.members[1:]):
            dom = no_singletons_family(n)
        else:
            dom = None
        if dom is not None:
            out.append((fam, dom))
    return out


def ruled_out_domains(rng, count):
    """count `restricted_domains` draws whose barycenter a B_i or a B_ij
    rules out, so that a warm decision of them never separates there."""
    out = []
    while len(out) < count:
        out += [(fam, dom) for fam, dom in restricted_domains(rng, 1)
                if barycenter_ruled_out(fam, dom)]
    return out


class TestPool:
    """After each feasible LP a warm decision adds the most violated of the
    pairwise cuts B_ij = <A> |+| (the domain sets that avoid i and j).  A
    separation runs only at a point that violates no stored or pool cut:
    the LP point, or on the first feasible round the barycenter, which is
    tried when no B_i rules it out; a B_ij that does becomes the round's
    pool cut."""

    def test_pool_cut_is_the_most_violated_pair(self, monkeypatch):
        events = []
        solve, separate = fcfam.fcsolve.lp_solve, fcfam.fcsolve.solve_separation

        def solved(lp):
            res = solve(lp)
            events.append(("solved", lp, len(lp.ge_rows), res))
            return res

        def separated(prob, point, **kwargs):
            events.append(("separated", point))
            return separate(prob, point, **kwargs)

        monkeypatch.setattr(fcfam.fcsolve, "lp_solve", solved)
        monkeypatch.setattr(fcfam.fcsolve, "solve_separation", separated)
        hits = 0
        for fam, dom in ruled_out_domains(random.Random(32), 60):
            events.clear()
            cert = is_fc(fam, domain=dom)
            pairs = [avoiding_cut(fam, dom, (1 << i) | (1 << j))
                     for j in range(fam.n) for i in range(j)]
            for now, after in zip(events, events[1:] + [None]):
                if now[0] == "separated" or isinstance(now[3], Infeasible):
                    continue
                _, lp, rows, res = now
                best = max(family_value(cut, res.point) for cut in pairs)
                if after[0] == "separated":
                    # the separation runs at the LP point, which violates no
                    # stored or pool cut
                    assert after[1] == res.point and best <= 0, (fam, dom)
                    continue
                # a pool round: the LP's next row is a most violated B_ij
                hits += 1
                added = [cut for cut in pairs if lp_row(cut) == lp.ge_rows[rows]]
                assert added and best > 0, (fam, dom)
                assert family_value(added[0], res.point) == best
                if cert.kind == "non-fc":
                    assert any(cut in cert.cuts for cut in added)
        assert hits >= 20, hits

    def test_warm_and_cold_agree(self):
        hits = 0
        for fam, dom in ruled_out_domains(random.Random(33), 60):
            for symmetry in (False, True):
                lines = []
                warm = is_fc(fam, symmetry=symmetry, domain=dom, progress=lines.append)
                cold = is_fc(fam, symmetry=symmetry, domain=dom, warm_start=False)
                assert warm.kind == cold.kind, (fam, dom, symmetry)
                assert verify_certificate(warm).passed, (fam, dom, symmetry)
                hits += sum(line.endswith("pool cut") for line in lines)
        assert hits >= 20, hits

    def test_progress_names_the_source_of_each_cut(self):
        lines = []
        # B_4 rules this family's barycenter out
        fam = Family.from_sets(6, [[1, 2, 3, 4, 5], [1, 2, 3, 5], [2, 3, 5, 6]])
        assert is_fc(fam, domain=no_singletons_family(6), progress=lines.append).kind == "fc"
        assert lines == ["round 1: 6 cut classes, pool cut", "round 2: 7 cut classes, pool cut",
                         "round 3: 8 cut classes, pool cut", "round 4: 9 cut classes, separating",
                         "round 5: 10 cut classes, separating"]
        lines.clear()
        is_fc(fam, domain=no_singletons_family(6), warm_start=False, progress=lines.append)
        assert lines and all(line.endswith("separating") for line in lines)
        # no B_i or B_ij rules this one's out: it is settled where it is tried
        lines.clear()
        fam = Family.from_sets(6, [[1, 2, 3, 4, 5], [1, 2, 3, 4, 6], [1, 2, 3, 5, 6]])
        cert = is_fc(fam, domain=no_singletons_family(6), progress=lines.append)
        assert cert.kind == "fc" and cert.weights == (Fraction(1, 6),) * 6
        assert lines == ["round 1: 6 cut classes, separating at the barycenter"]


def covering_families(rng, count):
    """count random families of 2 to 5 members over [4] to [6] whose union
    is [n], each with the full domain (None)."""
    out = []
    while len(out) < count:
        n = rng.randint(4, 6)
        fam = Family.from_masks(n, rng.sample(range(1, 1 << n), rng.randint(2, 5)))
        if functools.reduce(operator.or_, fam.members) == (1 << n) - 1:
            out.append((fam, None))
    return out


class TestBarycenter:
    """The first feasible round of a warm decision tries the barycenter
    (1/n, ..., 1/n) when no stored cut B_i rules it out; a pool cut B_ij
    that does becomes the round's pool cut, and otherwise the round
    separates there.  Any weight vector that the separation proves valid
    proves FC, so a proof there ends the decision."""

    @staticmethod
    def draws():
        rng = random.Random(35)
        return covering_families(rng, 40) + restricted_domains(rng, 40)

    def test_warm_and_cold_agree_and_barycenter_certificates_verify(self):
        at_barycenter = {4: 0, 5: 0, 6: 0}
        ruled_out = 0
        for fam, dom in self.draws():
            n = fam.n
            ruled_out += barycenter_ruled_out(fam, dom or powerset_family(n))
            for symmetry in (False, True):
                warm = is_fc(fam, symmetry=symmetry, domain=dom)
                cold = is_fc(fam, symmetry=symmetry, domain=dom, warm_start=False)
                assert warm.kind == cold.kind, (fam, dom, symmetry)
                if warm.kind != "fc" or warm.weights != (Fraction(1, n),) * n:
                    continue
                at_barycenter[n] += 1
                assert verify_certificate(warm).passed, (fam, dom, symmetry)
                if n <= 4:
                    base = union_closure(fam)
                    sep = brute_separation(base, warm.weights, dom or powerset_family(n))
                    assert sep.optimum == 0, (fam, dom)
        assert min(at_barycenter.values()) >= 8 and ruled_out >= 20, (at_barycenter, ruled_out)

    def test_separates_there_exactly_when_no_cut_rules_it_out(self, monkeypatch):
        points = count_calls(monkeypatch, fcfam.fcsolve, "solve_separation")
        tried = 0
        for fam, dom in self.draws() + ruled_out_domains(random.Random(36), 20):
            n = fam.n
            barycenter = (Fraction(1, n),) * n
            ruled_out = barycenter_ruled_out(fam, dom or powerset_family(n))
            for symmetry in (False, True):
                points.clear()
                is_fc(fam, symmetry=symmetry, domain=dom)
                separated = [point for _, point in points]
                if ruled_out:
                    assert barycenter not in separated, (fam, dom, symmetry)
                else:
                    # the first LP is feasible, since the barycenter satisfies
                    # its rows, and its round separates at the barycenter
                    assert separated[0] == barycenter, (fam, dom, symmetry)
                    assert barycenter not in separated[1:]
                    tried += 1
        assert tried >= 60, tried

    def test_a_pair_that_rules_it_out_is_the_rounds_pool_cut(self, monkeypatch):
        # over P([5]) less the singletons {1}, {3}, {4} and {5}, no B_i rules
        # this family's barycenter out but B_35 does: the first round takes
        # B_35, the one pair cut violated there, not B_34, the most violated
        # pair cut at the first LP point
        fam = Family.from_sets(5, [[2], [1, 4], [1, 3, 4, 5]])
        dom = Family.from_masks(5, [m for m in range(32) if m not in (1, 4, 8, 16)])
        barycenter = [Fraction(1, 5)] * 5
        pairs = {x: avoiding_cut(fam, dom, x) for x in range(32) if x.bit_count() == 2}
        assert all(family_value(avoiding_cut(fam, dom, 1 << i), barycenter) <= 0
                   for i in range(5))
        assert [x for x, cut in pairs.items() if family_value(cut, barycenter) > 0] == [0b10100]
        lps = []
        solve = fcfam.fcsolve.lp_solve

        def solved(lp):
            lps.append((lp, len(lp.ge_rows), solve(lp)))
            return lps[-1][2]

        monkeypatch.setattr(fcfam.fcsolve, "lp_solve", solved)
        lines = []
        cert = is_fc(fam, domain=dom, progress=lines.append)
        (lp, rows, first), (_, grown, _) = lps[:2]
        assert max(pairs, key=lambda x: family_value(pairs[x], first.point)) == 0b01100
        assert lines[0] == "round 1: 5 cut classes, pool cut"
        assert grown == rows + 1 and lp.ge_rows[rows] == lp_row(pairs[0b10100])
        assert cert.kind == is_fc(fam, domain=dom, warm_start=False).kind == "fc"
        assert verify_certificate(cert).passed

    def test_a_violated_barycenter_gives_the_rounds_cut(self, monkeypatch):
        # no drawn decision has found a violated family at a barycenter that
        # no B_i or B_ij rules out, so the filter is made to pass one that a
        # B_i rules out, on families whose most violated family there is no
        # B_i: the separation there finds it, it is the round's cut, and no
        # later round goes back
        real_weigher, solve, separate = (fcfam.fcsolve.weigher, fcfam.fcsolve.lp_solve,
                                         fcfam.fcsolve.solve_separation)

        def blind(weights):
            if set(weights) == {Fraction(1, len(weights))}:
                return lambda F: 0
            return real_weigher(weights)

        lps, seps = [], []

        def solved(lp):
            lps.append((lp, len(lp.ge_rows)))
            return solve(lp)

        def separated(prob, point, **kwargs):
            res = separate(prob, point, **kwargs)
            seps.append((point, res))
            return res

        monkeypatch.setattr(fcfam.fcsolve, "weigher", blind)
        monkeypatch.setattr(fcfam.fcsolve, "lp_solve", solved)
        monkeypatch.setattr(fcfam.fcsolve, "solve_separation", separated)
        checked = 0
        for fam, _ in covering_families(random.Random(37), 120):
            n = fam.n
            full = powerset_family(n)
            barycenter = (Fraction(1, n),) * n
            first = separate(build_separation(union_closure(fam), full), barycenter)
            if first.optimum <= 0 or first.witness in warm_start_cuts(fam, full):
                continue
            lps.clear()
            seps.clear()
            cert = is_fc(fam)
            if not seps:
                continue  # Non-FC by the first LP, which the B_i make infeasible
            # the first round separates at the barycenter and finds a violated
            # family, which is the second LP's new row; no later separation
            # runs there
            (point, res), *later = seps
            assert point == barycenter and res.optimum > 0, fam
            assert family_value(res.witness, barycenter) > 0
            (lp, rows), (_, grown) = lps[:2]
            assert grown == rows + 1 and lp.ge_rows[rows] == lp_row(res.witness)
            assert all(p != barycenter for p, _ in later)
            assert cert.kind == is_fc(fam, warm_start=False).kind, fam
            assert verify_certificate(cert).passed
            checked += 1
        assert checked >= 5, checked


def count_calls(monkeypatch, owner, name):
    """Record the arguments of every call of owner.name during the test."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestWorkDoneOnce:
    def test_separation_built_once_before_the_first_lp(self, monkeypatch):
        # each decision builds its one separation instance, over the full
        # domain or the caller's, before its first LP, and every round
        # separates over that instance
        events = []
        build, solve, separate = (fcfam.fcsolve.build_separation, fcfam.fcsolve.lp_solve,
                                  fcfam.fcsolve.solve_separation)

        def built(base, domain):
            prob = build(base, domain)
            events.append(("build", prob))
            return prob

        def separated(prob, point, **kwargs):
            events.append(("separate", prob))
            return separate(prob, point, **kwargs)

        monkeypatch.setattr(fcfam.fcsolve, "build_separation", built)
        monkeypatch.setattr(fcfam.fcsolve, "lp_solve",
                            lambda lp: events.append(("lp",)) or solve(lp))
        monkeypatch.setattr(fcfam.fcsolve, "solve_separation", separated)
        for sets, warm, domain, kind, one_lp in (
                # Non-FC from the first LP over the warm-start cuts
                ([[1, 2, 3], [3, 4, 5]], True, False, "non-fc", True),
                # cold decisions that take several rounds
                ([[1, 2, 3], [2, 3, 4], [3, 4, 5]], False, False, "fc", False),
                ([[1, 2, 3], [3, 4, 5]], False, False, "non-fc", False),
                # a caller's domain: building its instance validates it (the
                # warm FC family's barycenter is ruled out, so its decision
                # takes more than one round)
                ([[1, 2, 3, 4, 5], [3, 4, 5, 6, 7]], True, True, "non-fc", True),
                ([[1, 2, 3, 4, 5], [3, 4, 5, 6, 7]], False, True, "non-fc", False),
                ([[1, 2, 3, 4, 5], [1, 2, 3, 5], [2, 3, 5, 6]], True, True, "fc", False)):
            events.clear()
            fam = Family.from_sets(max(map(max, sets)), sets)
            dom = no_singletons_family(fam.n) if domain else None
            cert = is_fc(fam, warm_start=warm, domain=dom)
            assert cert.kind == kind and events[0][0] == "build", sets
            assert [e for e in events if e[0] == "build"] == events[:1]
            prob = events[0][1]
            assert prob.domain == (dom or powerset_family(fam.n))
            assert all(e[1] is prob for e in events if e[0] == "separate")
            assert (sum(e[0] == "lp" for e in events) == 1) == one_lp

    @pytest.mark.parametrize("symmetry", [False, True])
    def test_every_round_solves_one_lp(self, monkeypatch, symmetry):
        # one LinearProgram per decision: each round solves it again with the
        # cut of the round before appended, and nothing copies it
        seen = []
        solve = fcfam.fcsolve.lp_solve

        def recorded(lp):
            seen.append((lp, len(lp.ge_rows)))
            return solve(lp)

        monkeypatch.setattr(fcfam.fcsolve, "lp_solve", recorded)
        for sets, kind in (([[1, 2, 3], [2, 3, 4], [3, 4, 5]], "fc"),
                           ([[1, 2, 3], [3, 4, 5]], "non-fc")):
            seen.clear()
            cert = is_fc(Family.from_sets(5, sets), symmetry=symmetry, warm_start=False)
            assert cert.kind == kind and len(seen) > 2
            lp = seen[0][0]
            assert all(other is lp for other, _ in seen)
            assert [rows for _, rows in seen] == list(range(len(seen)))
            assert len(lp.eq_rows) == 1

    def test_each_cut_built_once(self, monkeypatch):
        # one LP row per stored cut, a distinct violated family; a Non-FC
        # certificate lists the cut's orbit of images, each with that row
        witnesses = []
        solve = fcfam.fcsolve.solve_separation

        def recorded(*args, **kwargs):
            res = solve(*args, **kwargs)
            if res.optimum > 0:
                witnesses.append(res.witness)
            return res

        monkeypatch.setattr(fcfam.fcsolve, "solve_separation", recorded)
        lps = count_calls(monkeypatch, fcfam.fcsolve, "lp_solve")
        for sets in ([[1, 2, 3], [3, 4, 5]], [[1, 2, 3], [2, 3, 4], [3, 4, 5]]):
            for symmetry in (False, True):
                witnesses.clear()
                lps.clear()
                fam = Family.from_sets(5, sets)
                cert = is_fc(fam, symmetry=symmetry, warm_start=False)
                closure = union_closure(fam)
                # the index of each element's orbit, the LP variable it shares
                parts = orbits(closure)
                oid = [next(k for k, orbit in enumerate(parts) if j in orbit)
                       for j in range(1, fam.n + 1)] if symmetry else None
                rows = lps[-1][0].ge_rows
                assert len(witnesses) == len(set(witnesses)) == len(rows)
                assert rows == [lp_row(w, oid) for w in witnesses]
                if cert.kind == "non-fc":
                    gens = generating_set(closure) if symmetry else []
                    for w, row in zip(witnesses, rows):
                        images = family_orbit(w, gens)
                        assert set(images) <= set(cert.cuts)
                        assert all(lp_row(img, oid) == row for img in images)
