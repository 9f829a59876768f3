"""Exact arithmetic for extended probability representations.

Three ways of making sense of conditioning on null events live here, with
exact conversions and cross-checks between them: conditional-probability
spaces with explicit conditioning families, lexicographic systems of
standard measures, and probability measures valued in an ordered field
with infinitesimals.
"""

from .belief import believes
from .field import EPS, ONE, ZERO, EpsPolynomial, NonstdNumber, eps_power, st_ratio
from .fincof import FinCofEvent, fincof_cond, fincof_nps_value, sampled_axiom_check
from .independence import (
    WitnessReport,
    approx_indep_mutual,
    approx_indep_set,
    box_combine,
    indep_events,
    verify_indep_witness,
    weak_indep,
)
from .lps import LPS, EquivCertificate, LpsClassification, classify_lps, equivalence, reduce_lps
from .npsbridge import (
    Decomposition,
    lps_to_nps,
    nps_equiv,
    nps_to_lps,
    nps_to_popper,
    verify_aeqchar,
)
from .popper import (
    PopperSpace,
    popper_to_slps,
    slps_to_popper,
    treelike_to_lps,
    validate_popper,
)
from .spaces import (
    NonstdMeasure,
    RandomVariable,
    SpaceAlgebra,
    StdMeasure,
    ValidationReport,
    validate_space,
)

__version__ = "0.1.0"

__all__ = [
    "EPS",
    "ONE",
    "ZERO",
    "Decomposition",
    "EpsPolynomial",
    "EquivCertificate",
    "FinCofEvent",
    "LPS",
    "LpsClassification",
    "NonstdMeasure",
    "NonstdNumber",
    "PopperSpace",
    "RandomVariable",
    "SpaceAlgebra",
    "StdMeasure",
    "ValidationReport",
    "WitnessReport",
    "approx_indep_mutual",
    "approx_indep_set",
    "believes",
    "box_combine",
    "classify_lps",
    "eps_power",
    "equivalence",
    "fincof_cond",
    "fincof_nps_value",
    "indep_events",
    "lps_to_nps",
    "nps_equiv",
    "nps_to_lps",
    "nps_to_popper",
    "popper_to_slps",
    "reduce_lps",
    "sampled_axiom_check",
    "slps_to_popper",
    "st_ratio",
    "treelike_to_lps",
    "validate_popper",
    "validate_space",
    "verify_aeqchar",
    "verify_indep_witness",
    "weak_indep",
]
