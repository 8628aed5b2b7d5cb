"""Maximally connected groupoids and the classification of discrete
fibrations over them as product projections."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedSpec, NotDiscreteFibration, NotOverMCG
from .fib import _reindex, fibre, is_discrete_fibration
from .fincat import (
    _ID_RULE,
    FinCat,
    FunctorSpec,
    Morphism,
    _first_bad_id,
    check_iso_over,
    tuple_id,
)


def mcg(A) -> FinCat:
    """The groupoid with object set A and exactly one morphism per ordered
    pair; n objects give n^2 morphisms, and n(n-1)^2 composites of two
    non-identities, which the table holds.

    The morphism from a to b is named "(a->b)", so the names of A must be
    distinct, nonempty and plain ids, and none may contain "->"; otherwise
    two arrows could share an id, and MalformedSpec names the first name at
    fault.
    """
    cat = mcg_walk(A)
    A, arrow = cat.objects, {(m.src, m.tgt): m.id for m in cat.morphisms}
    cat.compose.update(
        (arrow[b, c], {arrow[a, b]: arrow[a, c] for a in A if a != b})
        for b in A for c in A if b != c
    )
    return cat


def mcg_walk(A) -> FinCat:
    """The objects, morphisms and identities of mcg(A), as a FinCat with an
    empty table, so it costs time in n^2, not n^3; its names are checked as
    mcg checks them, before anything is built."""
    A = tuple(A)
    for i, a in enumerate(A):
        if not a:
            raise MalformedSpec(f"objects[{i}]", "empty object name")
        if "->" in a:
            raise MalformedSpec(f"objects[{i}]", "an object name may not contain '->'")
    i = _first_bad_id(A)
    if i is not None:
        raise MalformedSpec(f"objects[{i}]", _ID_RULE)
    if len(set(A)) != len(A):
        raise MalformedSpec("objects", "duplicate object names")
    arrow = {(a, b): f"({a}->{b})" for a in A for b in A}
    morphisms = tuple(Morphism(mid, a, b) for (a, b), mid in arrow.items())
    identity = {a: arrow[a, a] for a in A}
    return FinCat(objects=A, morphisms=morphisms, identity=identity, compose={})


def mcg_on_function(fn: dict, A, B) -> FunctorSpec:
    """The groupoid construction applied to a function A -> B."""
    dom, cod = mcg(A), mcg(B)
    return FunctorSpec(
        dom=dom,
        cod=cod,
        omap=dict(fn),
        mmap={m.id: cod.hom(fn[m.src], fn[m.tgt])[0] for m in dom.morphisms},
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
    """The category X x G with X a discrete set, plus its projection.  Its
    objects and morphisms are listed for x in X, for a (or m) in G."""
    obj = {(x, a): tuple_id(x, a) for x in X for a in base.objects}
    mor = {(x, m.id): tuple_id(x, m.id) for x in X for m in base.morphisms}
    morphisms = tuple(
        Morphism(mor[x, m.id], obj[x, m.src], obj[x, m.tgt]) for x in X for m in base.morphisms
    )
    identity = {oid: mor[x, base.identity[a]] for (x, a), oid in obj.items()}
    compose = {
        mor[x, g]: {mor[x, f]: mor[x, h] for f, h in row.items()}
        for x in X for g, row in base.compose.items()
    }
    cat = FinCat(tuple(obj.values()), morphisms, identity, compose)
    omap = {oid: a for (_, a), oid in obj.items()}
    projection = FunctorSpec(cat, base, omap, {mid: m for (_, m), mid in mor.items()})
    return cat, projection


def classify_over_mcg(p: FunctorSpec) -> MCGClassification:
    """Exhibit a discrete fibration over an MCG as a product projection.

    Every total object is transported along the unique connecting morphism
    to the fibre X over the least base object; pairing with the base object
    gives the isomorphism, which check_iso_over inverts.
    """
    base = p.cod
    if not is_mcg(base):
        raise NotOverMCG("codomain has non-unique homs")
    if not is_discrete_fibration(p).ok:
        raise NotDiscreteFibration("classification requires a discrete fibration")
    a0 = base.objects[0] if base.objects else None  # then X and every map are empty
    # reindexing along an isomorphism is a bijection, so every fibre has X's size
    X = fibre(p, a0).elements if base.objects else ()
    # the fibres partition the total objects, so each is transported once
    transport = {e: x for a in base.objects for e, x in _reindex(p, base.hom(a0, a)[0]).items()}
    product, projection = product_with_mcg(X, base)
    obj = dict(zip([(x, a) for x in X for a in base.objects], product.objects))
    mor = dict(zip([(x, m.id) for x in X for m in base.morphisms], product.morphisms))
    omap = {e: obj[transport[e], p.omap[e]] for e in p.dom.objects}
    mmap = {h.id: mor[transport[h.src], p.mmap[h.id]].id for h in p.dom.morphisms}
    H = FunctorSpec(p.dom, product, omap, mmap)
    Hinv = check_iso_over(H, p, projection)
    return MCGClassification(
        fibre_set=tuple(X), iso=H, inverse=Hinv, product_projection=projection
    )
