"""Finite categories, fibrations, and a pregroup-based toy semantics."""

from .fincat import (
    CONTRAVARIANT,
    COVARIANT,
    CommaResult,
    FinCat,
    FunctorSpec,
    Morphism,
    SetValuedFunctor,
    ValidationReport,
    comma,
    compose_functors,
    connected_components,
    constant_functor,
    identity_functor,
    opposite,
    opposite_functor,
    pullback,
    terminal_category,
    validate_category,
    validate_functor,
    validate_set_valued,
)
from .fib import (
    CartesianWitness,
    Fibre,
    Reindexing,
    fibre,
    is_cartesian,
    is_discrete_fibration,
    is_discrete_opfibration,
    is_fab_square,
    is_fib_morphism,
    is_fibration,
    is_opfibration,
    reindex,
)
from .groth import (
    ElementsResult,
    IsoWitness,
    elements,
    roundtrip_fibration,
    roundtrip_presheaf,
    straighten,
)
from .factor import (
    Factorization,
    comprehensive_factor_fib,
    comprehensive_factor_opfib,
    is_final,
    is_initial,
    pi0_functor,
)
from .mcg import MCGClassification, classify_over_mcg, is_mcg, product_with_mcg
from . import pregroup
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
