"""Maximally connected groupoids and the classification of discrete
fibrations over them as product projections."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotDiscreteFibration, NotOverMCG, UnequalFibres, WitnessFailure
from .fib import _reindex, fibre, is_discrete_fibration
from .fincat import (
    FinCat,
    FunctorSpec,
    Morphism,
    compose_functors,
    identity_functor,
    validate_functor,
)


def mcg(A) -> FinCat:
    """The groupoid with object set A and exactly one morphism per ordered
    pair; n objects give n^2 morphisms."""
    A = tuple(A)
    morphisms = tuple(
        Morphism(f"({a}->{b})", a, b) for a in A for b in A
    )
    identity = {a: f"({a}->{a})" for a in A}
    compose = {}
    for a in A:
        for b in A:
            for c in A:
                compose[(f"({b}->{c})", f"({a}->{b})")] = f"({a}->{c})"
    return FinCat(objects=A, morphisms=morphisms, identity=identity, compose=compose)


def mcg_on_function(fn: dict, A, B) -> FunctorSpec:
    """The groupoid construction applied to a function A -> B."""
    dom, cod = mcg(A), mcg(B)
    return FunctorSpec(
        dom=dom,
        cod=cod,
        omap=dict(fn),
        mmap={m.id: f"({fn[m.src]}->{fn[m.tgt]})" for m in dom.morphisms},
    )


def is_mcg(c: FinCat) -> bool:
    """Structural recognition: exactly one morphism between every ordered
    pair of objects."""
    return all(len(c.hom(a, b)) == 1 for a in c.objects for b in c.objects)


@dataclass(frozen=True)
class MCGClassification:
    fibre_set: tuple
    iso: FunctorSpec  # total category -> X x base
    inverse: FunctorSpec
    product_projection: FunctorSpec


def product_with_mcg(X, base: FinCat):
    """The category X x G with X a discrete set, plus its projection."""
    objects = tuple(f"({x}|{a})" for x in X for a in base.objects)
    morphisms = []
    for x in X:
        for m in base.morphisms:
            morphisms.append(Morphism(f"({x}|{m.id})", f"({x}|{m.src})", f"({x}|{m.tgt})"))
    identity = {f"({x}|{a})": f"({x}|{base.identity[a]})" for x in X for a in base.objects}
    compose = {}
    for x in X:
        for (g, f), h in base.compose.items():
            compose[(f"({x}|{g})", f"({x}|{f})")] = f"({x}|{h})"
    cat = FinCat(objects, tuple(morphisms), identity, compose)
    projection = FunctorSpec(
        dom=cat,
        cod=base,
        omap={f"({x}|{a})": a for x in X for a in base.objects},
        mmap={f"({x}|{m.id})": m.id for x in X for m in base.morphisms},
    )
    return cat, projection


def classify_over_mcg(p: FunctorSpec) -> MCGClassification:
    """Exhibit a discrete fibration over an MCG as a product projection.

    Every total object is transported to the fibre over the least base
    object along the unique connecting morphism; that fibre is the set X
    and pairing with the base object gives the isomorphism.
    """
    base = p.cod
    if not is_mcg(base):
        raise NotOverMCG("codomain has non-unique homs")
    if not is_discrete_fibration(p).ok:
        raise NotDiscreteFibration("classification requires a discrete fibration")
    if not base.objects:
        empty = FunctorSpec(p.dom, p.dom, {}, {})
        return MCGClassification(
            fibre_set=(), iso=empty, inverse=empty, product_projection=empty
        )
    a0 = base.objects[0]
    X = fibre(p, a0).elements
    sizes = {a: len(fibre(p, a).elements) for a in base.objects}
    if len(set(sizes.values())) > 1:
        raise UnequalFibres(str(sizes))
    transports = {a: _reindex(p, base.hom(a0, a)[0]).table for a in base.objects}
    transport = {}
    for e in p.dom.objects:
        a = p.omap[e]
        transport[e] = transports[a][e]
    product, projection = product_with_mcg(X, base)
    omap = {e: f"({transport[e]}|{p.omap[e]})" for e in p.dom.objects}
    mmap = {}
    for h in p.dom.morphisms:
        mmap[h.id] = f"({transport[h.src]}|{p.mmap[h.id]})"
    H = FunctorSpec(p.dom, product, omap, mmap)
    inv_omap, inv_mmap = {}, {}
    back = {a: _reindex(p, base.hom(a, a0)[0]).table for a in base.objects}
    for x in X:
        for a in base.objects:
            inv_omap[f"({x}|{a})"] = back[a][x]
    for x in X:
        for m in base.morphisms:
            inv_mmap[f"({x}|{m.id})"] = p.lifts(m.id, back[m.tgt][x])[0]
    Hinv = FunctorSpec(product, p.dom, inv_omap, inv_mmap)
    for F in (H, Hinv):
        if not validate_functor(F).ok:
            raise WitnessFailure("classification map is not a functor")
    if compose_functors(Hinv, H) != identity_functor(p.dom):
        raise WitnessFailure("H has no left inverse")
    if compose_functors(H, Hinv) != identity_functor(product):
        raise WitnessFailure("H has no right inverse")
    if compose_functors(projection, H) != p:
        raise WitnessFailure("triangle over the base fails")
    return MCGClassification(
        fibre_set=tuple(X), iso=H, inverse=Hinv, product_projection=projection
    )
