"""The comprehensive factorization of a functor.

Any functor factors as an initial functor followed by a discrete
opfibration; dually as a final functor after a discrete fibration.  The
middle category is the category of elements of the connected-components
functor d -> pi0(F/d), computed by union-find over each comma category.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import WitnessFailure
from .fib import is_discrete_fibration, is_discrete_opfibration
from .fincat import (
    COVARIANT,
    FinCat,
    FunctorSpec,
    SetValuedFunctor,
    ValidationReport,
    _violation,
    comma,
    compose_functors,
    connected_components,
    constant_functor,
    opposite,
    opposite_functor,
    terminal_category,
    validate_functor,
)


@dataclass(frozen=True)
class Factorization:
    s: FunctorSpec  # C -> E
    mid: FinCat
    p: FunctorSpec  # E -> D
    variant: str  # "opfibration" | "fibration"


def _comma_with_point(F: FunctorSpec, d: str):
    """(F/d)."""
    return comma(F, constant_functor(terminal_category(), F.cod, d))


def _pi0_data(F: FunctorSpec):
    """The covariant functor d -> pi0(F/d) plus the block map, keyed by the
    components (d, c, f: Fc -> d) of each comma object."""
    D = F.cod
    eltset, block_of, commas = {}, {}, {}
    for d in D.objects:
        cm = _comma_with_point(F, d)
        commas[d] = cm
        names = []
        for blk in connected_components(cm.cat):
            names.append(blk[0])
            for oid in blk:
                c, _, f = cm.obj_data[oid]
                block_of[(d, c, f)] = blk[0]
        eltset[d] = tuple(names)
    action = {}
    for g in D.morphisms:
        table = {}
        for c, _, f in commas[g.src].obj_data.values():
            target_block = block_of[(g.tgt, c, D.compose[(g.id, f)])]
            src_block = block_of[(g.src, c, f)]
            if table.setdefault(src_block, target_block) != target_block:
                raise WitnessFailure(f"block map not well-defined along {g.id}")
        action[g.id] = table
    K = SetValuedFunctor(base=D, variance=COVARIANT, eltset=eltset, action=action)
    return K, block_of


def pi0_functor(F: FunctorSpec) -> SetValuedFunctor:
    """d -> connected components of (F/d), as a covariant set-valued functor.

    Blocks are named by their least member in declaration order; the action
    of g: d -> d' post-composes comparison arrows and passes to blocks.
    """
    return _pi0_data(F)[0]


def comprehensive_factor_opfib(F: FunctorSpec) -> Factorization:
    """Initial functor followed by a discrete opfibration; all invariants
    are verified before returning."""
    from .groth import elements

    D = F.cod
    K, block_of = _pi0_data(F)
    built = elements(K)
    mid, p = built.total, built.projection
    obj_id = {data: o for o, data in built.obj_data.items()}
    mor_id = {data: m for m, data in built.mor_data.items()}

    def unit_block(c):
        d = F.omap[c]
        return block_of[(d, c, D.identity[d])]

    omap = {c: obj_id[F.omap[c], unit_block(c)] for c in F.dom.objects}
    mmap = {u.id: mor_id[F.mmap[u.id], unit_block(u.src)] for u in F.dom.morphisms}
    s = FunctorSpec(F.dom, mid, omap, mmap)
    _verify_factorization(s, p, F, "opfibration")
    return Factorization(s=s, mid=mid, p=p, variant="opfibration")


def comprehensive_factor_fib(F: FunctorSpec) -> Factorization:
    """Dual construction: factor the opposite, transport back."""
    opf = comprehensive_factor_opfib(opposite_functor(F))
    s = opposite_functor(opf.s)
    p = opposite_functor(opf.p)
    fac = Factorization(s=s, mid=opposite(opf.mid), p=p, variant="fibration")
    _verify_factorization(s, p, F, "fibration")
    return fac


def _verify_factorization(s, p, F, variant):
    if compose_functors(p, s) != F:
        raise WitnessFailure("p . s != F")
    if not validate_functor(s).ok or not validate_functor(p).ok:
        raise WitnessFailure("factor is not a functor")
    if variant == "opfibration":
        if not is_discrete_opfibration(p).ok:
            raise WitnessFailure("middle projection is not a discrete opfibration")
        if not is_initial(s).ok:
            raise WitnessFailure("first factor is not initial")
    else:
        if not is_discrete_fibration(p).ok:
            raise WitnessFailure("middle projection is not a discrete fibration")
        if not is_final(s).ok:
            raise WitnessFailure("first factor is not final")


def is_initial(s: FunctorSpec) -> ValidationReport:
    """s is initial iff every (s/e) is nonempty and connected."""
    violations = []
    for e in s.cod.objects:
        blocks = connected_components(_comma_with_point(s, e).cat)
        if len(blocks) != 1:
            violations.append(_violation("comma-connected", (e, len(blocks))))
    return ValidationReport.from_violations(violations)


def is_final(s: FunctorSpec) -> ValidationReport:
    """s is final iff every (e/s) is nonempty and connected, that is iff
    its opposite is initial: (e/s) is the opposite of (s^op/e), and
    connected components ignore direction."""
    return is_initial(opposite_functor(s))
