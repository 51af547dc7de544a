"""Numerical monoid computations: factorizations, Betti elements, minimal
presentations, factorization invariants, and an accelerated presentation
algorithm for shifted families."""

from . import core as _core
from . import oracle as _oracle
from . import presentations as _presentations
from . import shifted as _shifted
from .core import (
    DEFAULT_CAP,
    NumericalMonoid,
    apery,
    contains,
    default_window,
    frobenius,
    normalize_generators,
)
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    InvalidGenerators,
    InvalidInput,
    MonoidError,
    NotAnElement,
    NotARelation,
    NotInImage,
    NotMinimal,
    NotPrimitive,
    ShiftBelowThreshold,
    VerificationFailed,
)
from .factorizations import (
    LengthProfile,
    distance,
    factorizations,
    length_profile,
)
from .invariants import (
    CatenaryReport,
    DeltaSet,
    TameReport,
    catenary_of_element,
    catenary_of_monoid,
    delta_set,
    delta_set_of_element,
    monoid_catenary_report,
    monotone_equal_catenary,
    tame_degree,
    tame_degree_windowed,
)
from .oracle import (
    ClosureReport,
    congruence_closure_check,
    factorization_buckets,
    monotone_chain_search,
    naive_betti_scan,
    reachable_up_to,
)
from .presentations import (
    FactorizationGraph,
    Presentation,
    Relation,
    all_minimal_presentations,
    betti_elements,
    factorization_graph,
    make_presentation,
    make_relation,
    minimal_presentation,
)
from .shifted import (
    FamilyMember,
    ShiftedFamily,
    accelerated_minimal_presentation,
    equal_length_projection,
    family_from_generators,
    lift_presentation,
    lift_relation,
    lower_relation,
    monoid_at,
)

__version__ = "0.1.0"


def clear_caches():
    """Drop every memo: the Apery tables, the direct scans' Betti graphs and
    presentations, the offset monoids' least-length prefixes that the
    router's closed-form scans read, the router's verified lifts and the
    length classes its verification enumerates, and the oracle's
    factorization tables, so that the next call computes from scratch, as
    `bench` and the benchmark's cold runs need."""
    _core._apery_memo.clear()
    _presentations._minpres_memo.clear()
    _presentations._least_memo.clear()
    _shifted._lifted_memo.clear()
    _shifted._class_memo.clear()
    _oracle._buckets.cache_clear()


__all__ = [
    "BudgetExceeded",
    "CatenaryReport",
    "ClosureReport",
    "DEFAULT_CAP",
    "DeltaSet",
    "DimensionMismatch",
    "FactorizationGraph",
    "FamilyMember",
    "InvalidGenerators",
    "InvalidInput",
    "LengthProfile",
    "MonoidError",
    "NotAnElement",
    "NotARelation",
    "NotInImage",
    "NotMinimal",
    "NotPrimitive",
    "NumericalMonoid",
    "Presentation",
    "Relation",
    "ShiftBelowThreshold",
    "ShiftedFamily",
    "TameReport",
    "VerificationFailed",
    "accelerated_minimal_presentation",
    "all_minimal_presentations",
    "apery",
    "betti_elements",
    "catenary_of_element",
    "catenary_of_monoid",
    "clear_caches",
    "congruence_closure_check",
    "contains",
    "default_window",
    "delta_set",
    "delta_set_of_element",
    "distance",
    "equal_length_projection",
    "factorization_buckets",
    "factorization_graph",
    "factorizations",
    "family_from_generators",
    "frobenius",
    "length_profile",
    "lift_presentation",
    "lift_relation",
    "lower_relation",
    "make_presentation",
    "make_relation",
    "minimal_presentation",
    "monoid_at",
    "monoid_catenary_report",
    "monotone_chain_search",
    "monotone_equal_catenary",
    "naive_betti_scan",
    "normalize_generators",
    "reachable_up_to",
    "tame_degree",
    "tame_degree_windowed",
]
