"""The comprehensive factorization of a functor.

Any functor factors as an initial functor followed by a discrete
opfibration; dually as a final functor after a discrete fibration.  The
middle category is the category of elements of the connected-components
functor d -> pi0(F/d), or of d -> pi0(d/F), computed by one union-find
over all the (F/d) or all the (d/F).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import WitnessFailure
from .fib import is_discrete_fibration, is_discrete_opfibration
from .fincat import (
    CONTRAVARIANT,
    COVARIANT,
    FinCat,
    FunctorSpec,
    SetValuedFunctor,
    ValidationReport,
    _violation,
    compose_functors,
    connected_components,
    tuple_id,
    validate_functor,
)
from .groth import elements


@dataclass(frozen=True)
class Factorization:
    s: FunctorSpec  # C -> E
    p: FunctorSpec  # E -> D
    variant: str  # "opfibration" | "fibration"

    @property
    def mid(self) -> FinCat:
        return self.p.dom


def _comma_blocks(F: FunctorSpec, contra=False):
    """{d: the blocks of (F/d)}, each a list of its objects (c, f: Fc -> d),
    in declaration order.  The only comma morphisms are (u, id), so each
    u: c -> c' and f' out of Fc' join (c, f'.Fu) to (c', f').  With contra
    F is read as its opposite in place, which gives the blocks of (d/F)."""
    D = F.cod
    out = D.into if contra else D.out_of
    pairs = [(c, f.id) for c in F.dom.objects for f in out(F.omap[c])]
    edges = []
    for u in F.dom.morphisms:
        (a, b), Fu = (u.tgt, u.src) if contra else (u.src, u.tgt), F.mmap[u.id]
        row = D.compose[Fu]  # Fu's row: with contra the composite is Fu . f2
        for f2 in out(F.omap[b]):
            edges.append(((a, row[f2.id] if contra else D.compose[f2.id][Fu]), (b, f2.id)))
    blocks = {d: [] for d in D.objects}
    for blk in connected_components(pairs, edges):
        blocks[(D.src if contra else D.tgt)(blk[0][1])].append(blk)
    return blocks


def _pi0_data(F: FunctorSpec, contra=False):
    """The covariant functor d -> pi0(F/d), or with contra the contravariant
    d -> pi0(d/F), plus the block of each comma object (c, f)."""
    D = F.cod
    blocks = _comma_blocks(F, contra)
    eltset, block_of = {}, {}
    for d, blks in blocks.items():
        eltset[d] = tuple(tuple_id(blk[0][0], "*", blk[0][1]) for blk in blks)
        for blk, name in zip(blks, eltset[d]):
            block_of.update(dict.fromkeys(blk, name))
    action = {}
    for g in D.morphisms:
        table, d, row = {}, g.tgt if contra else g.src, D.compose[g.id]
        for blk, src_block in zip(blocks[d], eltset[d]):
            for c, f in blk:
                target_block = block_of[(c, D.compose[f][g.id] if contra else row[f])]
                if table.setdefault(src_block, target_block) != target_block:
                    raise WitnessFailure(f"block map not well-defined along {g.id}")
        action[g.id] = table
    K = SetValuedFunctor(D, CONTRAVARIANT if contra else COVARIANT, eltset, action)
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
    return _factor(F, contra=False)


def comprehensive_factor_fib(F: FunctorSpec) -> Factorization:
    """Final functor followed by a discrete fibration, the elements of
    d -> pi0(d/F); all invariants are verified before returning."""
    return _factor(F, contra=True)


def _factor(F: FunctorSpec, contra):
    K, block_of = _pi0_data(F, contra)
    built = elements(K)
    mid, p = built.total, built.projection
    obj_id, mor_id = built.obj_id, built.mor_id
    unit = {c: block_of[(c, F.cod.identity[F.omap[c]])] for c in F.dom.objects}
    omap = {c: obj_id[F.omap[c], unit[c]] for c in F.dom.objects}
    # elements keys each arrow by its source's element (its target's with contra)
    mmap = {
        u.id: mor_id[F.mmap[u.id], unit[u.tgt if contra else u.src]]
        for u in F.dom.morphisms
    }
    s = FunctorSpec(F.dom, mid, omap, mmap)
    if compose_functors(p, s) != F:
        raise WitnessFailure("p . s != F")
    if not validate_functor(s).ok or not validate_functor(p).ok:
        raise WitnessFailure("factor is not a functor")
    if contra:
        variant, check_p, check_s = "fibration", is_discrete_fibration, is_final
    else:
        variant, check_p, check_s = "opfibration", is_discrete_opfibration, is_initial
    if not check_p(p).ok:
        raise WitnessFailure(f"middle projection is not a discrete {variant}")
    if not check_s(s).ok:
        raise WitnessFailure(f"first factor is not {'final' if contra else 'initial'}")
    return Factorization(s=s, p=p, variant=variant)


def is_initial(s: FunctorSpec) -> ValidationReport:
    """s is initial iff every (s/e) is nonempty and connected."""
    return _connected(_comma_blocks(s))


def is_final(s: FunctorSpec) -> ValidationReport:
    """s is final iff every (e/s) is nonempty and connected."""
    return _connected(_comma_blocks(s, contra=True))


def _connected(blocks):
    bad = [(e, len(blks)) for e, blks in blocks.items() if len(blks) != 1]
    return ValidationReport(tuple(_violation("comma-connected", w) for w in bad))
