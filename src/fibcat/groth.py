"""The Grothendieck construction for finite set-valued functors.

``elements`` turns a set-valued functor into its category of elements with
the forgetful projection; ``straighten`` recovers a presheaf from a
discrete fibration via reindexing.  The two roundtrip operations construct
and verify the canonical isomorphism witnesses in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidFunctor, NotDiscreteFibration, WitnessFailure
from .fib import _reindex, fibre, is_discrete_fibration
from .fincat import (
    CONTRAVARIANT,
    COVARIANT,
    FinCat,
    FunctorSpec,
    Morphism,
    SetValuedFunctor,
    compose_functors,
    identity_functor,
    validate_functor,
    validate_set_valued,
)


def _pair(a, b):
    return f"({a}|{b})"


@dataclass(frozen=True)
class ElementsResult:
    total: FinCat
    projection: FunctorSpec
    # object id -> (c, x) and morphism id -> (f, key); kept so callers
    # recover components without re-parsing encoded ids
    obj_data: dict = field(default_factory=dict, repr=False, compare=False)
    mor_data: dict = field(default_factory=dict, repr=False, compare=False)


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
    pairs = [(c, x) for c in base.objects for x in W.eltset[c]]
    objects = tuple(_pair(c, x) for c, x in pairs)
    obj_data = dict(zip(objects, pairs))
    morphisms, mor_data = [], {}
    for f in base.morphisms:
        for key, val in W.action[f.id].items():
            if contra:
                src, tgt = _pair(f.src, val), _pair(f.tgt, key)
            else:
                src, tgt = _pair(f.src, key), _pair(f.tgt, val)
            mid = _pair(f.id, key)
            morphisms.append(Morphism(mid, src, tgt))
            mor_data[mid] = (f.id, key)
    identity = {oid: _pair(base.identity[c], x) for oid, (c, x) in obj_data.items()}
    total = FinCat(objects, tuple(morphisms), identity, {})
    # the composite over g.f carries the key of the outer (contra) or the
    # inner (covariant) morphism
    for g, f in total.composable_pairs():
        f2, k2 = mor_data[g]
        f1, k1 = mor_data[f]
        total.compose[(g, f)] = _pair(base.compose[(f2, f1)], k2 if contra else k1)
    projection = FunctorSpec(
        dom=total,
        cod=base,
        omap={oid: c for oid, (c, _) in obj_data.items()},
        mmap={mid: f for mid, (f, _) in mor_data.items()},
    )
    return ElementsResult(total, projection, obj_data, mor_data)


def straighten(p: FunctorSpec) -> SetValuedFunctor:
    """The presheaf of fibres of a discrete fibration, with reindexing
    actions."""
    if not is_discrete_fibration(p).ok:
        raise NotDiscreteFibration("straighten requires a discrete fibration")
    eltset = {c: fibre(p, c).elements for c in p.cod.objects}
    action = {u.id: _reindex(p, u.id).table for u in p.cod.morphisms}
    return SetValuedFunctor(
        base=p.cod, variance=CONTRAVARIANT, eltset=eltset, action=action
    )


@dataclass(frozen=True)
class IsoWitness:
    forward: object  # dict-of-dicts (presheaf side) or FunctorSpec
    backward: object
    checked: bool


def roundtrip_presheaf(W: SetValuedFunctor) -> IsoWitness:
    """Natural isomorphism W = straighten(elements(W)), componentwise
    x -> (c|x)."""
    W2 = straighten(elements(W).projection)
    forward = {c: {x: _pair(c, x) for x in W.eltset[c]} for c in W.base.objects}
    backward = {c: {v: k for k, v in forward[c].items()} for c in W.base.objects}
    for c in W.base.objects:
        if sorted(forward[c].values()) != sorted(W2.eltset[c]):
            raise WitnessFailure(f"component at {c} is not a bijection")
    for u in W.base.morphisms:
        for y in W.eltset[u.tgt]:
            if forward[u.src][W.action[u.id][y]] != W2.action[u.id][forward[u.tgt][y]]:
                raise WitnessFailure(f"naturality fails at ({u.id}, {y})")
    return IsoWitness(forward=forward, backward=backward, checked=True)


def roundtrip_fibration(p: FunctorSpec) -> IsoWitness:
    """Isomorphism of categories over the base:
    elements(straighten(p)) = dom(p)."""
    built = elements(straighten(p))
    E = p.dom
    fw_omap = {oid: e for oid, (_, e) in built.obj_data.items()}
    fw_mmap = {}
    for mid, (u, y) in built.mor_data.items():
        cands = p.lifts(u, y)
        if len(cands) != 1:
            raise WitnessFailure(f"no unique lift for {mid}")
        fw_mmap[mid] = cands[0]
    forward = FunctorSpec(built.total, E, fw_omap, fw_mmap)
    backward = FunctorSpec(
        E,
        built.total,
        omap={e: _pair(p.omap[e], e) for e in E.objects},
        mmap={m.id: _pair(p.mmap[m.id], m.tgt) for m in E.morphisms},
    )
    for F in (forward, backward):
        if not validate_functor(F).ok:
            raise WitnessFailure("witness map is not a functor")
    fb = compose_functors(forward, backward)
    bf = compose_functors(backward, forward)
    if fb != identity_functor(E) or bf != identity_functor(built.total):
        raise WitnessFailure("composites are not identities")
    if compose_functors(p, forward) != built.projection:
        raise WitnessFailure("forward triangle over the base fails")
    if compose_functors(built.projection, backward) != p:
        raise WitnessFailure("backward triangle over the base fails")
    return IsoWitness(forward=forward, backward=backward, checked=True)
