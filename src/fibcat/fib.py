"""Discrete and cloven fibration checks, fibres, reindexing, cartesian lifts.

A discrete fibration is a functor where every base morphism into the image
of a total object has exactly one lift with that codomain.  The general
(cloven) check records the first cartesian lift of each pair in declaration
order as the cleavage.  When p, dom(p) and cod(p) each keep a valid report,
given by their validators, a lift whose ends have unique lifts is cartesian
by theorem (see is_fibration); every other lift, and every lift of any other
functor, gets is_cartesian's exhaustive filler test.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    NotDiscreteFibration,
    ShapeMismatch,
    UnknownMorphism,
    UnknownObject,
)
from .fincat import (
    FunctorSpec,
    ValidationReport,
    _grouped,
    _kept_valid,
    _violation,
    identity_functor,
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
    return Fibre(c, members.get(c, ()), over.get(p.cod.identity[c], ()))


def is_discrete_fibration(p: FunctorSpec) -> ValidationReport:
    return _unique_lifts(p, p.cod.into, p._index[2])


def _unique_lifts(p, arrows_at, lifts):
    """For each total object e and base morphism u in arrows_at(p(e)), a
    unique-lift violation where lifts[(u, e)] does not hold exactly one."""
    violations = []
    for e in p.dom.objects:
        for u in arrows_at(p.omap[e]):
            n = len(lifts.get((u.id, e), ()))
            if n != 1:
                violations.append(_violation("unique-lift", (e, u.id, n)))
    return ValidationReport(tuple(violations))


def reindex(p: FunctorSpec, u: str) -> Reindexing:
    if not p.cod.has_morphism(u):
        raise UnknownMorphism(f"no base morphism named {u!r}")
    if not is_discrete_fibration(p).ok:
        raise NotDiscreteFibration("reindexing requires a discrete fibration")
    return Reindexing(along=u, table=_reindex(p, u))


def _reindex(p: FunctorSpec, u: str) -> dict:
    """reindex's table, for a p the caller has already checked to be discrete."""
    return {x: p.dom.src(p.lifts(u, x)[0]) for x in fibre(p, p.cod.tgt(u)).elements}


def is_cartesian(p: FunctorSpec, f: str) -> ValidationReport:
    """Exhaustive filler test for the cartesian property of f over p(f): the
    CartesianWitness, or the first pair (g, w) with n != 1 fillers as the
    one violation."""
    E = p.dom
    C = p.cod
    if not E.has_morphism(f):
        raise UnknownMorphism(f"no total morphism named {f!r}")
    m = E.morphism(f)
    u = p.mmap[f]
    row_u, row_f = C.compose[u], E.compose[f]
    fillers = {}
    for g in E.into(m.tgt):
        for w in C.hom(p.omap[g.src], C.src(u)):
            if row_u[w] != p.mmap[g.id]:
                continue
            hs = [h for h in p.lifts(w, m.src) if E.src(h) == g.src and row_f[h] == g.id]
            if len(hs) != 1:
                return ValidationReport((_violation("unique-filler", (g.id, w, len(hs))),))
            fillers[(g.id, w)] = hs[0]
    return ValidationReport(witness=CartesianWitness(lift=f, over=u, fillers=fillers))


def is_fibration(p: FunctorSpec) -> ValidationReport:
    """Cloven-fibration check: every (E, u: C -> pE) has a cartesian lift.

    The witness is the cleavage {(E, u): lift}, which records the first
    cartesian lift found in declaration order, so the choice is canonical.

    Theorem: let f: e' -> e lie over u, where every base morphism into p(e')
    has exactly one lift with target e', and every one into p(e) has at
    most one with target e.  Then f is cartesian, with unique fillers.
    Given g into e and w with u . w = p(g), let h0 be the one lift of w at
    e'; f . h0 and g both lift p(g) at e, so they are equal, and h0 is the
    filler.  The proof needs the composite f . h0 in the table and a p that
    preserves endpoints and composition, so the theorem is used only when
    p, dom(p) and cod(p) each keep a valid report: a library caller gets
    the theorem by validating them first, as load does.  The lift counts are read in the
    pass of the discrete check.  The test is sufficient, not necessary: a
    lift it does not settle, and every lift of any other p, gets
    is_cartesian's filler search, so the report is the same either way.
    """
    exact, at_most_one = _unique_lift_ends(p)
    src = p.dom.src
    cleavage = {}
    violations = []
    for e in p.dom.objects:
        settled = exact if e in at_most_one else ()  # a lift into e from these is cartesian
        for u in p.cod.into(p.omap[e]):
            lifts = p.lifts(u.id, e)
            found = next((h for h in lifts if src(h) in settled or is_cartesian(p, h).ok), None)
            if found is None:
                violations.append(_violation("cartesian-lift", (e, u.id)))
            else:
                cleavage[(e, u.id)] = found
    return ValidationReport(tuple(violations), cleavage)


def _unique_lift_ends(p):
    """The total objects e at which every base morphism into p(e) has exactly
    one lift with target e, and those at which each has at most one, read
    off the discrete check's violations.  Both are empty unless p, dom(p)
    and cod(p) each keep a valid report."""
    if not (_kept_valid(p.dom) and _kept_valid(p.cod) and _kept_valid(p)):
        return (), ()
    counts = [v["witness"] for v in is_discrete_fibration(p).violations]
    objects = set(p.dom.objects)
    exact = objects.difference(e for e, _, _ in counts)
    return exact, objects.difference(e for e, _, n in counts if n > 1)


def is_opfibration(p: FunctorSpec) -> ValidationReport:
    """The fibration check on the opposite-transported functor."""
    return is_fibration(opposite_functor(p))


def is_discrete_opfibration(p: FunctorSpec) -> ValidationReport:
    """The discrete fibration check on the opposite of p, read in place."""
    by_src = _grouped(((p.mmap[m.id], m.src), m.id) for m in p.dom.morphisms)
    return _unique_lifts(p, p.cod.out_of, by_src)


def _square_violations(H, F, p, q, laws):
    """The objects, then the morphisms, of dom(p) at which q . H and F . p
    differ, as violations of laws = (object law, morphism law)."""
    object_law, morphism_law = laws
    violations = [
        _violation(object_law, (c,))
        for c in p.dom.objects
        if q.omap[H.omap[c]] != F.omap[p.omap[c]]
    ]
    violations += [
        _violation(morphism_law, (m.id,))
        for m in p.dom.morphisms
        if q.mmap[H.mmap[m.id]] != F.mmap[p.mmap[m.id]]
    ]
    return violations


def is_fib_morphism(H: FunctorSpec, p: FunctorSpec, q: FunctorSpec) -> ValidationReport:
    """Check q . H = p, the square over the identity of the base, plus the
    induced reindexing squares.

    The triangle and the squares are reported as separate violation
    classes; for discrete fibrations the squares follow from the triangle,
    which the test suite asserts rather than assumes.
    """
    if H.dom != p.dom or H.cod != q.dom or p.cod != q.cod:
        raise ShapeMismatch("expected H: dom(p) -> dom(q) over a common base")
    violations = _square_violations(
        H, identity_functor(p.cod), p, q, ("triangle-object", "triangle-morphism")
    )
    if is_discrete_fibration(p).ok and is_discrete_fibration(q).ok:
        for u in p.cod.morphisms:
            rq = _reindex(q, u.id)
            for x, x_star in _reindex(p, u.id).items():
                hx = H.omap[x]
                if hx in rq and rq[hx] != H.omap[x_star]:
                    violations.append(_violation("reindexing-square", (u.id, x)))
    return ValidationReport(tuple(violations))


def is_fab_square(
    H: FunctorSpec, F: FunctorSpec, p: FunctorSpec, q: FunctorSpec
) -> ValidationReport:
    """Check the commutative square q . H = F . p between fibrations over
    possibly different bases."""
    if H.dom != p.dom or H.cod != q.dom or F.dom != p.cod or F.cod != q.cod:
        raise ShapeMismatch("expected a square H over F from p to q")
    violations = _square_violations(H, F, p, q, ("square-object", "square-morphism"))
    return ValidationReport(tuple(violations))
