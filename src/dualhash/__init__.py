"""Dual universal hash families over GF(2) and their security bounds.

Exact measurement of (dual) universality parameters of linear hash
families, the duality bounds relating a family to its dual, delta-biased
equivalences, Gallager-style decoding bounds, and desk-scale wiretap / key
distillation simulation.
"""

from .gf2 import (
    BinaryMatrix,
    BitVector,
    EnumerationCapError,
    LinearCode,
    WeightDistribution,
    dual,
    kernel,
)
from .hashfam import HashFamily, HashFamilySpec, HashFunction, apply_hash
from .universality import (
    CodeFamily,
    CodePairFamily,
    SearchBudgetError,
    UniversalityReport,
    counterexample_family,
    duality_bound,
    epsilon_dual_universal,
    epsilon_floor,
    epsilon_pair,
    epsilon_reports,
    epsilon_universal,
    permuted_epsilon,
    permuted_pair_epsilon,
    search_permuted_code,
    tight_family,
)
from .bounds import (
    BoundReport,
    approach_ratio,
    binary_entropy,
    eta,
    gallager_family_bound,
    qkd_bounds,
    reliability_e,
    weighted_decoding_bound,
)
from .cqstate import (
    CQState,
    code_bias,
    d1_distance,
    h2_d2_hmin,
    holevo,
    verify_pa,
)
from .simulator import (
    SimResult,
    counterexample_leakage,
    decode,
    distill_keys,
    exact_error_prob,
    family_average_error,
    wiretap_eval,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryMatrix",
    "BitVector",
    "BoundReport",
    "CQState",
    "CodeFamily",
    "CodePairFamily",
    "EnumerationCapError",
    "HashFamily",
    "HashFamilySpec",
    "HashFunction",
    "LinearCode",
    "SearchBudgetError",
    "SimResult",
    "UniversalityReport",
    "WeightDistribution",
    "apply_hash",
    "approach_ratio",
    "binary_entropy",
    "code_bias",
    "counterexample_family",
    "counterexample_leakage",
    "d1_distance",
    "decode",
    "distill_keys",
    "dual",
    "duality_bound",
    "epsilon_dual_universal",
    "epsilon_floor",
    "epsilon_pair",
    "epsilon_reports",
    "epsilon_universal",
    "eta",
    "exact_error_prob",
    "family_average_error",
    "gallager_family_bound",
    "h2_d2_hmin",
    "holevo",
    "kernel",
    "permuted_epsilon",
    "permuted_pair_epsilon",
    "qkd_bounds",
    "reliability_e",
    "search_permuted_code",
    "tight_family",
    "verify_pa",
    "weighted_decoding_bound",
    "wiretap_eval",
]
