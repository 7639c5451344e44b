"""jigroup: decision procedures for just-infinite properties.

Two group classes are covered: virtually abelian lattice groups given by an
exact integral (or p-adic integral) matrix action of a finite group, and
finite wreath-product shadow models.  Everything is exact; no floating
point exists anywhere.
"""

from .basal import (
    BasalCertificate,
    ShadowModel,
    ShadowSubgroup,
    basal_from_intersections,
    is_basal,
    maxcor_equivalence_check,
    permji_witness,
    shadow_ji_verdict,
)
from .chartab import CharacterTable, character_table, min_faithful_degree
from .hilbert import REAL_PLACE, hilbert_symbol, quaternion_is_division
from .padic import (
    DEFAULT_PRECISION,
    PrecisionExhausted,
    QpFactorReport,
    irreducible_over_Qp,
    padic_split,
    qp_factor_count,
)
from .perm import (
    PermGroup,
    SubgroupHandle,
    group_from_generators,
    relative_ops,
)
from .profiles import (
    VaProfile,
    lgm_oracle,
    maximal_scan,
    quaternionic_type,
    respthm_check,
    subgroup_ji,
    va_just_infinite,
    validate_va_profile,
)
from .profile_io import parse_profile
from .rep import (
    MatRep,
    algebra_structure,
    commutant,
    irreducible_over_Q,
    matrix_block_system,
    rep_from_data,
)
from .smallgrp import frattini, maximal_subgroups, recognize_special
from .verdicts import Verdict
from .wreath import WreathShadow, build_wreath_shadow, wreath_verdicts
from .fixtures import paper_examples

__all__ = [
    "BasalCertificate",
    "CharacterTable",
    "DEFAULT_PRECISION",
    "MatRep",
    "PermGroup",
    "PrecisionExhausted",
    "QpFactorReport",
    "REAL_PLACE",
    "ShadowModel",
    "ShadowSubgroup",
    "SubgroupHandle",
    "VaProfile",
    "Verdict",
    "WreathShadow",
    "algebra_structure",
    "basal_from_intersections",
    "build_wreath_shadow",
    "character_table",
    "commutant",
    "frattini",
    "group_from_generators",
    "hilbert_symbol",
    "irreducible_over_Q",
    "irreducible_over_Qp",
    "is_basal",
    "lgm_oracle",
    "matrix_block_system",
    "maxcor_equivalence_check",
    "maximal_scan",
    "maximal_subgroups",
    "min_faithful_degree",
    "padic_split",
    "paper_examples",
    "parse_profile",
    "permji_witness",
    "qp_factor_count",
    "quaternion_is_division",
    "quaternionic_type",
    "recognize_special",
    "relative_ops",
    "rep_from_data",
    "respthm_check",
    "shadow_ji_verdict",
    "subgroup_ji",
    "va_just_infinite",
    "validate_va_profile",
    "wreath_verdicts",
]

__version__ = "0.1.0"
