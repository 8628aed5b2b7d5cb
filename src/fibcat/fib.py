"""Discrete and cloven fibration checks, fibres, reindexing, cartesian lifts.

A discrete fibration is a functor where every base morphism into the image
of a total object has exactly one lift with that codomain.  The general
(cloven) check searches for cartesian lifts by exhaustive filler tests and
records the first one found in declaration order as the cleavage.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotDiscreteFibration, ShapeMismatch, UnknownObject
from .fincat import (
    FunctorSpec,
    ValidationReport,
    _violation,
    opposite_functor,
)


@dataclass(frozen=True)
class Fibre:
    base_object: str
    elements: tuple  # total objects over base_object, declaration order
    over_identity: tuple  # total morphisms lying over the identity


@dataclass(frozen=True)
class Reindexing:
    along: str
    table: dict  # fibre(tgt u) element -> fibre(src u) element


@dataclass(frozen=True)
class CartesianWitness:
    lift: str
    over: str
    fillers: dict  # (g, w) -> unique filler h


def fibre(p: FunctorSpec, c: str) -> Fibre:
    if not p.cod.has_object(c):
        raise UnknownObject(c)
    members, over, _ = p._index
    return Fibre(
        base_object=c,
        elements=tuple(members.get(c, ())),
        over_identity=tuple(over.get(p.cod.identity[c], ())),
    )


def is_discrete_fibration(p: FunctorSpec) -> ValidationReport:
    violations = []
    for e in p.dom.objects:
        for u in p.cod.into(p.omap[e]):
            n = len(p.lifts(u.id, e))
            if n != 1:
                violations.append(_violation("unique-lift", (e, u.id, n)))
    return ValidationReport.from_violations(violations)


def reindex(p: FunctorSpec, u: str) -> Reindexing:
    if not is_discrete_fibration(p).ok:
        raise NotDiscreteFibration("reindexing requires a discrete fibration")
    return _reindex(p, u)


def _reindex(p: FunctorSpec, u: str) -> Reindexing:
    """reindex for a p the caller has already checked to be discrete."""
    table = {x: p.dom.src(p.lifts(u, x)[0]) for x in fibre(p, p.cod.tgt(u)).elements}
    return Reindexing(along=u, table=table)


def is_cartesian(p: FunctorSpec, f: str):
    """Exhaustive filler test for the cartesian property of f over p(f)."""
    E = p.dom
    C = p.cod
    m = E.morphism(f)
    u = p.mmap[f]
    fillers = {}
    for g in E.into(m.tgt):
        for w in C.hom(p.omap[g.src], C.src(u)):
            if C.compose[(u, w)] != p.mmap[g.id]:
                continue
            hs = [
                h
                for h in p.lifts(w, m.src)
                if E.src(h) == g.src and E.compose[(f, h)] == g.id
            ]
            if len(hs) != 1:
                return {"ok": False, "counterexample": (g.id, w, len(hs))}
            fillers[(g.id, w)] = hs[0]
    return {
        "ok": True,
        "witness": CartesianWitness(lift=f, over=u, fillers=fillers),
    }


def is_fibration(p: FunctorSpec):
    """Cloven-fibration check: every (E, u: C -> pE) has a cartesian lift.

    The cleavage records the first cartesian lift found in declaration
    order, which makes the choice canonical.
    """
    cleavage = {}
    violations = []
    for e in p.dom.objects:
        for u in p.cod.into(p.omap[e]):
            found = None
            for cand in p.lifts(u.id, e):
                if is_cartesian(p, cand)["ok"]:
                    found = cand
                    break
            if found is None:
                violations.append(_violation("cartesian-lift", (e, u.id)))
            else:
                cleavage[(e, u.id)] = found
    return {"ok": not violations, "cleavage": cleavage, "violations": violations}


def is_opfibration(p: FunctorSpec):
    """The fibration check on the opposite-transported functor."""
    return is_fibration(opposite_functor(p))


def is_discrete_opfibration(p: FunctorSpec) -> ValidationReport:
    return is_discrete_fibration(opposite_functor(p))


def is_fib_morphism(H: FunctorSpec, p: FunctorSpec, q: FunctorSpec) -> ValidationReport:
    """Check q . H = p, plus the induced reindexing squares.

    The triangle and the squares are reported as separate violation
    classes; for discrete fibrations the squares follow from the triangle,
    which the test suite asserts rather than assumes.
    """
    if H.dom != p.dom or H.cod != q.dom or p.cod != q.cod:
        raise ShapeMismatch("expected H: dom(p) -> dom(q) over a common base")
    violations = []
    for c in H.dom.objects:
        if q.omap[H.omap[c]] != p.omap[c]:
            violations.append(_violation("triangle-object", (c,)))
    for m in H.dom.morphisms:
        if q.mmap[H.mmap[m.id]] != p.mmap[m.id]:
            violations.append(_violation("triangle-morphism", (m.id,)))
    if is_discrete_fibration(p).ok and is_discrete_fibration(q).ok:
        for u in p.cod.morphisms:
            rp = _reindex(p, u.id)
            rq = _reindex(q, u.id)
            for x, x_star in rp.table.items():
                hx = H.omap[x]
                if hx in rq.table and rq.table[hx] != H.omap[x_star]:
                    violations.append(_violation("reindexing-square", (u.id, x)))
    return ValidationReport.from_violations(violations)


def is_fab_square(
    H: FunctorSpec, F: FunctorSpec, p: FunctorSpec, q: FunctorSpec
) -> ValidationReport:
    """Check the commutative square q . H = F . p between fibrations over
    possibly different bases."""
    if H.dom != p.dom or H.cod != q.dom or F.dom != p.cod or F.cod != q.cod:
        raise ShapeMismatch("expected a square H over F from p to q")
    violations = []
    for c in p.dom.objects:
        if q.omap[H.omap[c]] != F.omap[p.omap[c]]:
            violations.append(_violation("square-object", (c,)))
    for m in p.dom.morphisms:
        if q.mmap[H.mmap[m.id]] != F.mmap[p.mmap[m.id]]:
            violations.append(_violation("square-morphism", (m.id,)))
    return ValidationReport.from_violations(violations)
