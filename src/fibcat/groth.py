"""The Grothendieck construction for finite set-valued functors.

``elements`` turns a set-valued functor into its category of elements with
the forgetful projection; ``straighten`` recovers a presheaf from a
discrete fibration via reindexing.  The two roundtrip operations construct
and verify the canonical isomorphism witnesses in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidFunctor, MalformedSpec, NotDiscreteFibration, WitnessFailure
from .fib import _reindex, fibre, is_discrete_fibration
from .fincat import (
    CONTRAVARIANT,
    COVARIANT,
    FinCat,
    FunctorSpec,
    Morphism,
    SetValuedFunctor,
    check_iso_over,
    opposite,
    tuple_id,
    validate_set_valued,
)


@dataclass(frozen=True)
class ElementsResult:
    total: FinCat
    projection: FunctorSpec
    # (c, x) -> object id and (f, key) -> morphism id; kept so callers
    # find each id from its parts without rendering or parsing it again
    obj_id: dict = field(repr=False, compare=False)
    mor_id: dict = field(repr=False, compare=False)


def elements(W: SetValuedFunctor) -> ElementsResult:
    """Category of elements: objects are pairs (c|x) with x in eltset(c).

    Contravariant W: a morphism (f|y) for each f: C -> C' and y in
    eltset(C'), from (C|action(f)(y)) to (C'|y).  Covariant K: a morphism
    (f|x) for each x in eltset(C), from (C|x) to (C'|action(f)(x)).
    """
    if not validate_set_valued(W).ok:
        raise InvalidFunctor("functoriality laws fail")
    contra = W.variance == CONTRAVARIANT
    base = W.base
    # each id is rendered once and found again from its parts
    obj_id = {(c, x): tuple_id(c, x) for c in base.objects for x in W.eltset[c]}
    morphisms, mor_id = [], {}
    for f in base.morphisms:
        for key, val in W.action[f.id].items():
            if contra:
                src, tgt = obj_id[f.src, val], obj_id[f.tgt, key]
            else:
                src, tgt = obj_id[f.src, key], obj_id[f.tgt, val]
            mid = tuple_id(f.id, key)
            morphisms.append(Morphism(mid, src, tgt))
            mor_id[f.id, key] = mid
    identity = {oid: mor_id[base.identity[c], x] for (c, x), oid in obj_id.items()}
    # the arrows over g and f that meet at val compose to (g.f|key), for each
    # key -> val of the action applied first: g's when contra, else f's
    compose = {}
    for g, f in base.composable_pairs():
        for key, val in W.action[g if contra else f].items():
            kg, kf = (key, val) if contra else (val, key)
            compose.setdefault(mor_id[g, kg], {})[mor_id[f, kf]] = mor_id[base.compose[g][f], key]
    total = FinCat(tuple(obj_id.values()), tuple(morphisms), identity, compose)
    omap = {oid: c for (c, _), oid in obj_id.items()}
    projection = FunctorSpec(total, base, omap, {mid: f for (f, _), mid in mor_id.items()})
    return ElementsResult(total, projection, obj_id, mor_id)


def straighten(p: FunctorSpec) -> SetValuedFunctor:
    """The presheaf of fibres of a discrete fibration, with reindexing
    actions."""
    if not is_discrete_fibration(p).ok:
        raise NotDiscreteFibration("straighten requires a discrete fibration")
    eltset = {c: fibre(p, c).elements for c in p.cod.objects}
    action = {u.id: _reindex(p, u.id) for u in p.cod.morphisms}
    return SetValuedFunctor(
        base=p.cod, variance=CONTRAVARIANT, eltset=eltset, action=action
    )


@dataclass(frozen=True)
class IsoWitness:
    forward: object  # dict-of-dicts (presheaf side) or FunctorSpec
    backward: object


def roundtrip_presheaf(W: SetValuedFunctor) -> IsoWitness:
    """Natural isomorphism W = straighten(elements(W)), componentwise
    x -> (c|x).  A covariant W is read as the contravariant presheaf on the
    opposite base, with the same element sets and actions."""
    if W.variance == COVARIANT:
        W = SetValuedFunctor(opposite(W.base), CONTRAVARIANT, W.eltset, W.action)
    built = elements(W)
    W2 = straighten(built.projection)
    forward = {c: {x: built.obj_id[c, x] for x in W.eltset[c]} for c in W.base.objects}
    backward = {c: {v: k for k, v in forward[c].items()} for c in W.base.objects}
    for c in W.base.objects:
        if sorted(forward[c].values()) != sorted(W2.eltset[c]):
            raise WitnessFailure(f"component at {c} is not a bijection")
    for u in W.base.morphisms:
        for y in W.eltset[u.tgt]:
            if forward[u.src][W.action[u.id][y]] != W2.action[u.id][forward[u.tgt][y]]:
                raise WitnessFailure(f"naturality fails at ({u.id}, {y})")
    return IsoWitness(forward=forward, backward=backward)


def roundtrip_fibration(p: FunctorSpec) -> IsoWitness:
    """Isomorphism of categories over the base:
    elements(straighten(p)) = dom(p)."""
    built = elements(straighten(p))
    E = p.dom
    fw_omap = {oid: e for (_, e), oid in built.obj_id.items()}
    fw_mmap = {}
    for (u, y), mid in built.mor_id.items():
        cands = p.lifts(u, y)
        if len(cands) != 1:
            raise WitnessFailure(f"no unique lift for {mid}")
        fw_mmap[mid] = cands[0]
    forward = FunctorSpec(built.total, E, fw_omap, fw_mmap)
    omap = {e: built.obj_id[p.omap[e], e] for e in E.objects}
    try:
        mmap = {m.id: built.mor_id[p.mmap[m.id], m.tgt] for m in E.morphisms}
    except KeyError:  # p is no functor: some m.tgt lies over another object than tgt(p(m))
        m = next(m for m in E.morphisms if (p.mmap[m.id], m.tgt) not in built.mor_id)
        u = p.mmap[m.id]
        raise MalformedSpec(f"mmap.{m.id}", f"unknown morphism {tuple_id(u, m.tgt)}") from None
    backward = FunctorSpec(E, built.total, omap, mmap)
    check_iso_over(backward, forward, p, built.projection)
    return IsoWitness(forward=forward, backward=backward)
