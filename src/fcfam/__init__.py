"""Exact decision procedures for Frankl-Complete families of sets."""

from .setfam import (
    Family,
    FrequencyTable,
    compact_universe,
    format_family,
    frequencies,
    lex_ksets,
    lex_prefix,
    no_singletons_family,
    parse_family,
    powerset_family,
    regular_3set_fc,
    regularity,
    restrict_fiber,
    translates_family,
    union_closure,
    universe,
    uplus,
)
from .canon import (
    CanonicalForm,
    OrbitPartition,
    are_isomorphic,
    automorphism_group,
    canonical_form,
    orbits,
)
from .ratlp import (
    FarkasCertificate,
    Feasible,
    Infeasible,
    LinearProgram,
    lp_solve,
)
from .sepip import (
    SeparationProblem,
    SeparationResult,
    brute_separation,
    build_separation,
    solve_separation,
)
from .fcsolve import (
    FcCertificate,
    NonFcCertificate,
    fc3_value,
    is_fc,
    load_certificate,
    save_certificate,
    upper_bound,
)
from .enumfam import (
    FcValueReport,
    LexScanResult,
    fc_value,
    fcv_value,
    get_nfc,
    lex_scan,
)
from .verify import VerificationReport, verify_certificate, verify_fc, verify_nonfc

__version__ = "0.1.0"
