"""Every public entry point refuses malformed input with a ValueError that
says what is wrong."""

from fractions import Fraction

import pytest

from fcfam.canon import apply_perm_family, canonical_form, generating_set
from fcfam.enumfam import EnumSession, fc_value, fcv_value, get_nfc, lex_scan
from fcfam.fcsolve import upper_bound
from fcfam.ratlp import LinearProgram
from fcfam.sepip import build_separation, solve_separation
from fcfam.setfam import (
    Family,
    lex_ksets,
    no_singletons_family,
    parse_family,
    powerset_family,
    restrict_fiber,
    translates_family,
    union_closure,
)

P3 = powerset_family(3)
WIDE = Family.from_sets(17, [[i] for i in range(1, 18)])


def separation():
    return build_separation(union_closure(Family.from_sets(3, [[1, 2, 3]])), P3)


CASES = {
    "separation-weight-count": (lambda: solve_separation(separation(), [Fraction(1)]),
                                "expected 3 weights, got 1"),
    "separation-negative-weight": (
        lambda: solve_separation(separation(), [Fraction(-1), Fraction(1), Fraction(1)]),
        "weights must be nonnegative"),
    "base-without-empty-set": (lambda: build_separation(Family.from_sets(3, [[1, 2, 3]]), P3),
                               "base family must contain the empty set"),
    "base-not-union-closed": (
        lambda: build_separation(Family.from_sets(3, [[], [1], [2], [3]]), P3),
        "base family must be union-closed"),
    "domain-over-4": (
        lambda: build_separation(union_closure(Family.from_sets(3, [[1, 2, 3]])),
                                 powerset_family(4)),
        "domain ground size mismatch"),
    "lp-row-length": (lambda: LinearProgram(2, [((1,), 1)]),
                      "row length does not match variable count"),
    "lp-add-ge-length": (lambda: LinearProgram(2, []).add_ge([1], 1),
                         "row length does not match variable count"),
    "lp-fraction-entry": (lambda: LinearProgram(2, []).add_ge([1, Fraction(1, 2)], 1),
                          "LP rows take int coefficients and right sides only"),
    "lp-bool-entry": (lambda: LinearProgram(2, [((1, True), 1)]),
                      "LP rows take int coefficients and right sides only"),
    "lp-float-rhs": (lambda: LinearProgram(2, [([1, 1], 1.0)]),
                     "LP rows take int coefficients and right sides only"),
    "fc-value-k2": (lambda: fc_value(2, 5), r"need n > k >= 3"),
    "fcv-value-n-equals-k": (lambda: fcv_value(5, 5), r"need n > k >= 3"),
    "lex-scan-n-equals-k": (lambda: lex_scan(4, 4), r"need n > k >= 3"),
    "session-jobs-0": (lambda: EnumSession(jobs=0), r"jobs must be >= 1"),
    "get-nfc-m0": (lambda: get_nfc(4, 3, 0), "m must be >= 1"),
    "get-nfc-m-negative": (lambda: get_nfc(4, 3, -2), "m must be >= 1"),
    "candidates-m-negative": (lambda: EnumSession().candidates(4, 3, -3), "m must be >= 1"),
    "family-ground-0": (lambda: Family(0, ()), r"ground size 0 not in 1\.\.256"),
    "family-ground-257": (lambda: Family(257, ()), r"ground size 257 not in 1\.\.256"),
    "family-unsorted": (lambda: Family(3, (2, 1)), "members must be strictly sorted and distinct"),
    "powerset-17": (lambda: powerset_family(17), "ground size 17 exceeds cap 16"),
    "no-singletons-17": (lambda: no_singletons_family(17), "ground size 17 exceeds cap 16"),
    "lex-ksets-k-above-n": (lambda: lex_ksets(3, 4), r"need 1 <= k <= n, got k=4, n=3"),
    "fiber-above-ground": (lambda: restrict_fiber(P3, 0, 4),
                           "fiber ground size 4 exceeds family ground size 3"),
    "translates-17": (lambda: translates_family(17, (0, 1, 2)),
                      "torus with 289 cells exceeds cap 256"),
    "parse-comment-only": (lambda: parse_family("# only a comment"),
                           "cannot determine a positive ground size"),
    "parse-headers-differ": (lambda: parse_family("n=5\n1,2\nn=3\n"),
                             "header n=3 conflicts with header n=5"),
    "short-permutation": (lambda: apply_perm_family((1, 2), P3),
                          "permutation size does not match ground size"),
    "canonical-form-17": (lambda: canonical_form(WIDE), "ground size 17 exceeds cap 16"),
    "generating-set-17": (lambda: generating_set(WIDE), "universe of 17 elements exceeds cap 16"),
    "upper-bound-m0": (lambda: upper_bound(4, 9, 8, 0), "m0 must be positive"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_refused(name):
    call, message = CASES[name]
    with pytest.raises(ValueError, match=message):
        call()
