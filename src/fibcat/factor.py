"""The comprehensive factorization of a functor.

Any functor factors as an initial functor followed by a discrete
opfibration; dually as a final functor after a discrete fibration.  The
middle category is the category of elements of the connected-components
functor d -> pi0(F/d), computed by one union-find over all the (F/d).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import WitnessFailure
from .fib import is_discrete_fibration, is_discrete_opfibration
from .fincat import (
    COVARIANT,
    FinCat,
    FunctorSpec,
    Morphism,
    SetValuedFunctor,
    ValidationReport,
    _violation,
    compose_functors,
    connected_components,
    opposite,
    opposite_functor,
    tuple_id,
    validate_functor,
)


@dataclass(frozen=True)
class Factorization:
    s: FunctorSpec  # C -> E
    mid: FinCat
    p: FunctorSpec  # E -> D
    variant: str  # "opfibration" | "fibration"


def _comma_blocks(F: FunctorSpec):
    """{d: the blocks of (F/d)}, each a list of its objects (c, f: Fc -> d),
    in declaration order.  The only comma morphisms are (u, id), so each
    u: c -> c' and f' out of Fc' join (c, f'.Fu) to (c', f')."""
    D = F.cod
    out = {}
    for m in D.morphisms:
        out.setdefault(m.src, []).append(m.id)
    pairs = [(c, f) for c in F.dom.objects for f in out.get(F.omap[c], ())]
    edges = [
        Morphism((u.id, f2), (u.src, D.compose[(f2, F.mmap[u.id])]), (u.tgt, f2))
        for u in F.dom.morphisms
        for f2 in out.get(F.omap[u.tgt], ())
    ]
    blocks = {d: [] for d in D.objects}
    # a bare graph: connected_components reads only objects and morphisms
    for blk in connected_components(FinCat(pairs, edges, {}, {})):
        blocks[D.tgt(blk[0][1])].append(blk)
    return blocks


def _pi0_data(F: FunctorSpec):
    """The covariant functor d -> pi0(F/d) plus the block of each comma
    object (c, f: Fc -> d)."""
    D = F.cod
    blocks = _comma_blocks(F)
    eltset, block_of = {}, {}
    for d, blks in blocks.items():
        eltset[d] = tuple(tuple_id(blk[0][0], "*", blk[0][1]) for blk in blks)
        for blk, name in zip(blks, eltset[d]):
            block_of.update(dict.fromkeys(blk, name))
    action = {}
    for g in D.morphisms:
        table = {}
        for blk, src_block in zip(blocks[g.src], eltset[g.src]):
            for c, f in blk:
                target_block = block_of[(c, D.compose[(g.id, f)])]
                if table.setdefault(src_block, target_block) != target_block:
                    raise WitnessFailure(f"block map not well-defined along {g.id}")
        action[g.id] = table
    K = SetValuedFunctor(base=D, variance=COVARIANT, eltset=eltset, action=action)
    return K, block_of


def pi0_functor(F: FunctorSpec) -> SetValuedFunctor:
    """d -> connected components of (F/d), as a covariant set-valued functor.

    Blocks are named "(c|*|f)" after their least member (c, f: Fc -> d);
    the action of g: d -> d' post-composes f and passes to blocks.
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
        return block_of[(c, D.identity[F.omap[c]])]

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
    violations = [
        _violation("comma-connected", (e, len(blks)))
        for e, blks in _comma_blocks(s).items()
        if len(blks) != 1
    ]
    return ValidationReport.from_violations(violations)


def is_final(s: FunctorSpec) -> ValidationReport:
    """s is final iff every (e/s) is nonempty and connected, that is iff
    its opposite is initial: (e/s) is the opposite of (s^op/e), and
    connected components ignore direction."""
    return is_initial(opposite_functor(s))
