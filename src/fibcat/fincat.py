"""Finite categories, functors and set-valued functors, with validators.

Everything downstream (fibrations, the Grothendieck construction, the
comprehensive factorization, the pregroup semantics) is phrased in terms of
the three types defined here.  Categories carry an explicit composition
table, its unit composites read by rule, so every law is exhaustively
checkable.  Values are immutable once built, except that a constructor may
fill a new category's ``compose`` in place before handing it out.

A value is immutable once validated, too: ``validate_category``,
``validate_functor`` and ``validate_set_valued`` keep their report on the
value they checked and return it on the next call.  No copy
(``copy.copy``, ``copy.deepcopy``, ``pickle``, ``dataclasses.replace``)
carries the kept report, so a copy that is changed is checked afresh.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import chain

from .errors import CodMismatch, MalformedSpec, WitnessFailure


@dataclass(frozen=True, init=False)
class Morphism:
    # slots of its own, not slots=True: that rebuilds the class, and the
    # generated frozen __setattr__ would then name the discarded one
    __slots__ = ("id", "src", "tgt")
    id: str
    src: str
    tgt: str

    def __init__(self, id, src, tgt):
        # the slot descriptors write past the frozen __setattr__ at half the
        # cost of the generated __init__'s object.__setattr__ calls
        _set_id(self, id)
        _set_src(self, src)
        _set_tgt(self, tgt)

    def __reduce__(self):
        # the default reduce restores the slots through the frozen __setattr__
        return Morphism, (self.id, self.src, self.tgt)


_set_id, _set_src, _set_tgt = Morphism.id.__set__, Morphism.src.__set__, Morphism.tgt.__set__


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple = ()
    witness: object = None  # what the check found, e.g. a cleavage or fillers

    @property
    def ok(self):
        return not self.violations


def _violation(law, witness):
    return {"law": law, "witness": witness}


def _kept(validate):
    """validate, keeping its report on the value it checked and returning
    that on the next call."""

    @wraps(validate)
    def kept(x, **kwargs):
        report = x.__dict__.get("_report")
        if report is None:
            report = validate(x, **kwargs)
            object.__setattr__(x, "_report", report)
        return report

    return kept


def _kept_valid(x):
    """True if x keeps a report with no violation."""
    report = x.__dict__.get("_report")
    return report is not None and report.ok


class _Unkept:
    """A value whose copies are checked afresh: the state that copy and
    pickle take has no kept report."""

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_report"}


_NO_ROW = {}  # the row of a morphism with no composites; never written


def _grouped(pairs):
    """{key: tuple of its values}, keys and values in the order of pairs."""
    groups = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return {key: tuple(values) for key, values in groups.items()}


@dataclass(frozen=True)
class FinCat(_Unkept):
    """A finite category given by explicit data.

    objects and morphisms are kept in declaration order; every enumeration
    in the library iterates in that order, so constructions are
    deterministic.  ``compose`` holds a non-empty row ``{f: g after f}`` per
    g, with the composites a file or a construction wrote; those of the
    unit pairs, the composable pairs with an identity in them, that it
    lacks are read by rule, by ``composite`` or, in a hot loop, inline.
    The indexes read ``objects``, ``morphisms`` and ``identity`` only, so a
    constructor may fill ``compose``, never ``identity``, after building the
    category; the ``out_of`` and ``hom`` indexes are built on first use.
    """

    objects: tuple
    morphisms: tuple  # of Morphism
    identity: dict  # object id -> morphism id
    compose: dict  # g id -> {f id -> g∘f id}

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "morphisms", tuple(self.morphisms))
        # derived lookups: plain attributes, not constructor arguments
        object.__setattr__(self, "_by_id", {m.id: m for m in self.morphisms})
        object.__setattr__(self, "_object_set", set(self.objects))
        object.__setattr__(self, "_identity_set", set(self.identity.values()))
        object.__setattr__(self, "_into", _grouped((m.tgt, m) for m in self.morphisms))

    @cached_property
    def _out(self):
        return _grouped((m.src, m) for m in self.morphisms)

    @cached_property
    def _hom(self):
        return _grouped(((m.src, m.tgt), m.id) for m in self.morphisms)

    def has_object(self, c):
        return c in self._object_set

    def morphism(self, mid):
        return self._by_id[mid]

    def has_morphism(self, mid):
        return mid in self._by_id

    def src(self, mid):
        return self._by_id[mid].src

    def tgt(self, mid):
        return self._by_id[mid].tgt

    def is_identity(self, mid):
        m = self._by_id[mid]
        return self.identity.get(m.src) == mid and m.src == m.tgt

    def out_of(self, c):
        """The morphisms with source c, in declaration order."""
        return self._out.get(c, ())

    def into(self, c):
        """The morphisms with target c, in declaration order."""
        return self._into.get(c, ())

    def hom(self, a, b):
        return self._hom.get((a, b), ())

    def composable_pairs(self):
        """Every (g, f) with tgt(f) = src(g), unit pairs too, in declaration order."""
        for g in self.morphisms:
            for f in self.into(g.src):
                yield g.id, f.id

    def composite(self, g, f):
        """g . f: the table's entry, else, at a unit pair, g if f is an
        identity and f if not; None at any other pair the table lacks."""
        h, units = self.compose.get(g, _NO_ROW).get(f), self._identity_set
        if h is None and (f in units or g in units) and self._by_id[f].tgt == self._by_id[g].src:
            h = g if f in units else f
        return h


def tuple_id(*parts):
    """The id of a tuple of component ids, "(a|b|...)".

    Injective on ids that pass ``is_plain_id``, and its result passes
    again, so ids built from plain ids never collide.
    """
    return "(" + "|".join(parts) + ")"


_ID_RULE = "brackets must nest and '|' may appear only inside them"


# every byte but those of "(", ")" and "|", which UTF-8 gives no other character
_NOT_A_BRACKET = bytes(b for b in range(256) if b not in b"()|")
_OPEN, _CLOSE = b"()"
_NOT_A_SKELETON = bytes(b for b in range(256) if b not in b"()|\n")
_INNERMOST = re.compile(rb"\(\|*\)")
_ROUNDS = 8  # each round lifts one level of nesting; a deeper id is checked alone


def is_plain_id(s):
    """True if the brackets in s nest properly and no "|" is outside them."""
    if "(" not in s and ")" not in s and "|" not in s:
        return True
    depth = 0
    # a library caller may pass a lone surrogate, which strict UTF-8 refuses
    for b in s.encode("utf-8", "surrogatepass").translate(None, _NOT_A_BRACKET):
        if b == _OPEN:
            depth += 1
        elif b == _CLOSE:
            depth -= 1
            if depth < 0:
                return False
        elif depth == 0:
            return False
    return depth == 0


def _first_bad_id(ids):
    """The index of the first id in the list ids that fails is_plain_id,
    or None.

    The ids are checked as one text, an id a line.  Its skeleton of
    brackets, bars and line breaks loses its innermost groups "(|*)" a
    level a round; if only line breaks are left, every id passes.  A line
    break in an id only splits its skeleton, so it can fail this test but
    never pass it.  Where the test fails, or nesting is deeper than
    _ROUNDS, is_plain_id checks each id."""
    text = "\n".join(ids)
    if "(" not in text and ")" not in text and "|" not in text:
        return None
    skeleton = text.encode("utf-8", "surrogatepass").translate(None, _NOT_A_SKELETON)
    for _ in range(_ROUNDS):
        skeleton, n = _INNERMOST.subn(b"", skeleton)
        if not n:
            break
    if not skeleton.strip(b"\n"):
        return None
    return next((i for i, s in enumerate(ids) if not is_plain_id(s)), None)


def _unit_rows(c: FinCat):
    """{g: {f: g . f}} over the unit pairs that c's table does not hold,
    g . f by rule: g in declaration order, then f among the morphisms into
    src(g), in declaration order, all if g is an identity, else those."""
    units, rows = c._identity_set, {}
    units_into = _grouped((m.tgt, m) for m in c.morphisms if m.id in units)
    for g in c.morphisms:
        row = c.compose.get(g.id, _NO_ROW)
        for f in c.into(g.src) if g.id in units else units_into.get(g.src, ()):
            if f.id not in row:
                rows.setdefault(g.id, {})[f.id] = g.id if f.id in units else f.id
    return rows


def _lawful_units(c: FinCat):
    """True if c keeps a valid report, or if each identity of c has the right
    ends and each entry of its table with an identity in it is as the unit
    laws force, so that ``composite`` reads every unit composite so."""
    by_id, units = c._by_id, c._identity_set
    return _kept_valid(c) or all(
        i in by_id and by_id[i].src == o == by_id[i].tgt for o, i in c.identity.items()
    ) and all(
        h == (g if f in units else f)
        for g, row in c.compose.items() for f, h in row.items() if g in units or f in units
    )


def _repeated(ids, path, what):
    """The MalformedSpec at the first id in ids that repeats an earlier one."""
    seen = set()
    for i, x in enumerate(ids):
        if x in seen:
            return MalformedSpec(path.format(i), f"duplicate {what} id")
        seen.add(x)


@_kept
def validate_category(c: FinCat) -> ValidationReport:
    """Check the category laws; a dangling or repeated id raises MalformedSpec.

    The ends of the morphisms and the identities are checked first.  Then
    one walk over the table, a row at a time, resolves each entry's ids,
    raising at the first that does not resolve, checks composability and
    endpoint coherence, and counts the composable entries.  When every
    identity has the right ends, the unit pairs are lawful by rule, so the
    walk reads only the table's entries, counts the 2|morphisms| - |objects|
    unit pairs, and the unit laws are checked only if an entry at a unit
    pair is wrong; otherwise it goes on over the unit pairs the table lacks
    (``_unit_rows``).  The composable pairs are walked only when there are
    more of them than that count, to list the missing ones.  Repeated ids
    are checked last.  Once every other law holds, the table is total, so a
    triple with an identity in it, or through a row the table lacks, is
    associative by the unit laws and is skipped.  If the category is thin,
    with at most one arrow per hom-set, no triple is walked, since both
    composites of each lie in one hom-set."""
    objects, by_id, identity = c._object_set, c._by_id, c.identity
    for i, m in enumerate(c.morphisms):
        if m.src not in objects:
            raise MalformedSpec(f"morphisms[{i}].src", f"unknown object {m.src}")
        if m.tgt not in objects:
            raise MalformedSpec(f"morphisms[{i}].tgt", f"unknown object {m.tgt}")
    for obj, mid in identity.items():
        if obj not in objects:
            raise MalformedSpec(f"identity.{obj}", "unknown object")
        if mid not in by_id:
            raise MalformedSpec(f"identity.{obj}", f"unknown morphism {mid}")
    violations = []
    for obj in c.objects:
        mid = identity.get(obj)
        if mid is None:
            violations.append(_violation("identity-totality", (obj,)))
            continue
        m = by_id[mid]
        if m.src != obj or m.tgt != obj:
            violations.append(_violation("identity-endpoints", (obj, mid)))
    compose, units, composable, entry_violations = c.compose, c._identity_set, 0, []
    by_rule = not violations  # the unit pairs are lawful by rule
    unit_laws = not by_rule  # whether the unit laws can fail
    for g, row in chain(compose.items(), () if by_rule else _unit_rows(c).items()):
        mg, g_unit = by_id.get(g), g in units
        if mg is None:
            raise MalformedSpec(f"compose.{g}", "unknown morphism")
        for f, h in row.items():
            try:
                mf, mh = by_id[f], by_id[h]
            except KeyError:
                what = "morphism" if f not in by_id else "composite"
                raise MalformedSpec(f"compose.{g}.{f}", f"unknown {what}") from None
            if mf.tgt != mg.src:
                entry_violations.append(_violation("composition-composability", (g, f)))
                continue
            if mh.src != mf.src or mh.tgt != mg.tgt:
                entry_violations.append(_violation("endpoint-coherence", (g, f, h)))
            if not by_rule or not (g_unit or f in units):
                composable += 1
            elif (g_unit and h != f) or (f in units and h != g):
                unit_laws = True
    if len(by_id) != len(c.morphisms):
        raise _repeated([m.id for m in c.morphisms], "morphisms[{}].id", "morphism")
    if len(objects) != len(c.objects):
        raise _repeated(c.objects, "objects[{}]", "object")
    composable += (2 * len(c.morphisms) - len(c.objects)) if by_rule else 0
    if composable != sum(len(c._into.get(g.src, ())) for g in c.morphisms):
        missing = (p for p in c.composable_pairs() if c.composite(*p) is None)
        violations += (_violation("composition-totality", pair) for pair in missing)
    violations += entry_violations
    if unit_laws:
        for m in c.morphisms:
            lid = identity.get(m.tgt)
            rid = identity.get(m.src)
            if rid is not None and c.composite(m.id, rid) not in (None, m.id):
                violations.append(_violation("right-unit", (m.id, rid)))
            if lid is not None and c.composite(lid, m.id) not in (None, m.id):
                violations.append(_violation("left-unit", (lid, m.id)))
    # associativity, only meaningful where the table is total enough
    if not violations and len({(m.src, m.tgt) for m in c.morphisms}) == len(c.morphisms):
        return ValidationReport()
    # with other violations, a copy of the table holds the unit pairs too, and a
    # triple with a composite missing from it says nothing
    rule = not violations
    table, skip = (compose, units) if rule else (_with_unit_pairs(c), ())
    for h in c.morphisms:
        row_h = table.get(h.id)
        if not row_h or h.id in skip:
            continue
        h_rule = h.id if rule else None  # h . i for an identity i
        for g in c.into(h.src):
            row_g = table.get(g.id)
            if not row_g or g.id in skip:
                continue
            row_hg = table.get(row_h.get(g.id), _NO_ROW)
            for f in c.into(g.src):
                if f.id in skip:
                    continue
                left = row_h.get(row_g.get(f.id), h_rule)
                right = row_hg.get(f.id, f.id if rule else None)  # f if h . g is an identity
                if left != right and left is not None and right is not None:
                    violations.append(_violation("associativity", (h.id, g.id, f.id)))
    return ValidationReport(tuple(violations))


def _with_unit_pairs(c: FinCat):
    """A copy of c's table with the unit pairs it does not hold added."""
    units = _unit_rows(c)
    return {g: {**c.compose.get(g, _NO_ROW), **units.get(g, _NO_ROW)} for g in {**c.compose, **units}}


@dataclass(frozen=True)
class FunctorSpec(_Unkept):
    dom: FinCat
    cod: FinCat
    omap: dict  # object id -> object id
    mmap: dict  # morphism id -> morphism id

    @cached_property
    def _index(self):
        """Fibre members per codomain object, domain morphisms per image,
        and lifts per (image, domain target), each a tuple in declaration
        order.  Built on first use, so omap and mmap must be complete by
        then."""
        images = [(self.mmap[m.id], m) for m in self.dom.morphisms]
        return (
            _grouped((self.omap[e], e) for e in self.dom.objects),
            _grouped((u, m.id) for u, m in images),
            _grouped(((u, m.tgt), m.id) for u, m in images),
        )

    def lifts(self, u, e):
        """The domain morphisms over u with target e, in declaration order."""
        return self._index[2].get((u, e), ())


@_kept
def validate_functor(F: FunctorSpec) -> ValidationReport:
    """Check the functor laws; a missing or unknown image, or a key of omap or
    mmap outside F.dom, raises MalformedSpec.  Like the other two validators,
    it keeps its report on F, where fib.is_fibration's theorem reads it.

    The walk covers the entries of the domain's table, then its unit pairs
    by rule, which F preserves once it preserves endpoints and identities
    and F.cod reads its unit composites by the unit laws (_lawful_units):
    then those are not walked."""
    omap, mmap, cod = F.omap, F.mmap, F.cod
    for c in F.dom.objects:
        if c not in omap:
            raise MalformedSpec(f"omap.{c}", "missing object image")
        if omap[c] not in cod._object_set:
            raise MalformedSpec(f"omap.{c}", f"unknown object {omap[c]}")
    violations = []
    for m in F.dom.morphisms:
        if m.id not in mmap:
            raise MalformedSpec(f"mmap.{m.id}", "missing morphism image")
        img = cod._by_id.get(mmap[m.id])
        if img is None:
            raise MalformedSpec(f"mmap.{m.id}", f"unknown morphism {mmap[m.id]}")
        if img.src != omap[m.src] or img.tgt != omap[m.tgt]:
            violations.append(_violation("endpoint-preservation", (m.id,)))
    # every object and morphism of F.dom has an image, so a longer map has a stray key
    if len(omap) != len(F.dom._object_set):
        key = next(k for k in omap if k not in F.dom._object_set)
        raise MalformedSpec(f"omap.{key}", "unknown object")
    if len(mmap) != len(F.dom._by_id):
        key = next(k for k in mmap if k not in F.dom._by_id)
        raise MalformedSpec(f"mmap.{key}", "unknown morphism")
    for c in F.dom.objects:
        if mmap[F.dom.identity[c]] != cod.identity[omap[c]]:
            violations.append(_violation("identity-preservation", (c,)))
    unit_rows = _unit_rows(F.dom) if violations or not _lawful_units(cod) else {}
    for g, row in chain(F.dom.compose.items(), unit_rows.items()):
        Fg = mmap[g]
        cod_row = cod.compose.get(Fg, _NO_ROW)
        for f, h in row.items():
            if cod_row.get(mmap[f]) != mmap[h] and cod.composite(Fg, mmap[f]) != mmap[h]:
                violations.append(_violation("composition-preservation", (g, f)))
    return ValidationReport(tuple(violations))


def identity_functor(c: FinCat) -> FunctorSpec:
    return FunctorSpec(
        dom=c,
        cod=c,
        omap={o: o for o in c.objects},
        mmap={m.id: m.id for m in c.morphisms},
    )


def compose_functors(G: FunctorSpec, F: FunctorSpec) -> FunctorSpec:
    """G after F."""
    if F.cod is not G.dom and F.cod != G.dom:
        raise CodMismatch("cod(F) != dom(G)")
    return FunctorSpec(
        dom=F.dom,
        cod=G.cod,
        omap={c: G.omap[F.omap[c]] for c in F.dom.objects},
        mmap={m.id: G.mmap[F.mmap[m.id]] for m in F.dom.morphisms},
    )


def check_iso_over(H: FunctorSpec, p: FunctorSpec, q: FunctorSpec) -> FunctorSpec:
    """Return the inverse Hinv of H: dom(p) -> dom(q), its maps in dom(q)'s
    declaration order, if H is an isomorphism over the base: a functor,
    bijective on objects and morphisms, whose inverse is a functor, with
    q . H = p; else raise WitnessFailure.  p . Hinv = q is not composed:
    given Hinv . H = id, H . Hinv = id and q . H = p, p . Hinv = q . H .
    Hinv = q, if q's maps hold only dom(q)'s keys, as those of a validated
    functor, an elements projection and a product projection do."""
    if not validate_functor(H).ok:
        raise WitnessFailure("witness map is not a functor")
    # validated, so H's maps hold exactly dom(H)'s keys, and images in cod(H)
    omap = {y: x for x, y in H.omap.items()}
    mmap = {v: u for u, v in H.mmap.items()}
    if len(omap) != len(H.omap) or len(mmap) != len(H.mmap):
        raise WitnessFailure("H has no left inverse")
    if len(omap) != len(H.cod._object_set) or len(mmap) != len(H.cod._by_id):
        raise WitnessFailure("H has no right inverse")
    Hinv = FunctorSpec(H.cod, H.dom, {c: omap[c] for c in H.cod.objects},
                       {m.id: mmap[m.id] for m in H.cod.morphisms})
    if not validate_functor(Hinv).ok:
        raise WitnessFailure("witness map is not a functor")
    if compose_functors(q, H) != p:
        raise WitnessFailure("triangle over the base fails")
    return Hinv


def constant_functor(dom: FinCat, cod: FinCat, at: str) -> FunctorSpec:
    return FunctorSpec(
        dom=dom,
        cod=cod,
        omap={c: at for c in dom.objects},
        mmap={m.id: cod.identity[at] for m in dom.morphisms},
    )


def terminal_category() -> FinCat:
    return FinCat(
        objects=("*",),
        morphisms=(Morphism("id:*", "*", "*"),),
        identity={"*": "id:*"},
        compose={},
    )


CONTRAVARIANT = "contravariant"
COVARIANT = "covariant"


@dataclass(frozen=True)
class SetValuedFunctor(_Unkept):
    """A finite set per object and a function per morphism.

    For contravariant W and f: A -> B, action(f) maps eltset(B) to
    eltset(A); for covariant, the other way around.
    """

    base: FinCat
    variance: str
    eltset: dict  # object id -> tuple of element ids
    action: dict  # morphism id -> {element id -> element id}


@_kept
def validate_set_valued(W: SetValuedFunctor) -> ValidationReport:
    """Check the functor laws; a malformed presheaf raises MalformedSpec.

    The composition action is walked only where every action is a function
    between the right sets, over the entries of the base's table, then its
    unit pairs by rule, which act rightly once each identity acts as one
    and the base reads its unit composites by the unit laws
    (_lawful_units): then those are not walked."""
    if W.variance not in (CONTRAVARIANT, COVARIANT):
        raise MalformedSpec("variance", "bad variance")
    for c, elts in W.eltset.items():
        if not W.base.has_object(c):
            raise MalformedSpec(f"eltset.{c}", "unknown object")
        if len(set(elts)) != len(elts):
            raise MalformedSpec(f"eltset.{c}", "duplicate elements")
    for c in W.base.objects:
        if c not in W.eltset:
            raise MalformedSpec(f"eltset.{c}", "missing element set")
    for mid in W.action:
        if not W.base.has_morphism(mid):
            raise MalformedSpec(f"action.{mid}", "unknown morphism")
    violations = []
    for m in W.base.morphisms:
        table = W.action.get(m.id)
        if table is None:
            raise MalformedSpec(f"action.{m.id}", "missing action")
        a, b = (m.tgt, m.src) if W.variance == CONTRAVARIANT else (m.src, m.tgt)
        dom_set, cod_set = set(W.eltset[a]), set(W.eltset[b])
        if set(table) != dom_set or not set(table.values()) <= cod_set:
            violations.append(_violation("action-endpoints", (m.id,)))
    if violations:
        return ValidationReport(tuple(violations))
    for c in W.base.objects:
        table = W.action[W.base.identity[c]]
        if any(table.get(x) != x for x in W.eltset[c]):
            violations.append(_violation("identity-action", (c,)))
    base, action, contra = W.base, W.action, W.variance == CONTRAVARIANT
    unit_rows = _unit_rows(base) if violations or not _lawful_units(base) else {}
    for g, row in chain(base.compose.items(), unit_rows.items()):
        src, action_g = base.src(g), action[g]
        for f, h in row.items():
            if base.tgt(f) != src:
                continue  # validate_category reports a pair that does not compose
            # over the domain of the action applied first: h may have wrong endpoints
            first, then = (action_g, action[f]) if contra else (action[f], action_g)
            if {x: then[y] for x, y in first.items()} != action[h]:
                violations.append(_violation("composition-action", (g, f)))
    return ValidationReport(tuple(violations))


def opposite(c: FinCat) -> FinCat:
    """Same ids, src/tgt swapped, compose transposed.  An involution."""
    compose = {}
    for g, row in c.compose.items():
        for f, h in row.items():
            compose.setdefault(f, {})[g] = h
    morphisms = tuple(Morphism(m.id, m.tgt, m.src) for m in c.morphisms)
    return FinCat(c.objects, morphisms, dict(c.identity), compose)


def opposite_functor(F: FunctorSpec) -> FunctorSpec:
    return FunctorSpec(opposite(F.dom), opposite(F.cod), dict(F.omap), dict(F.mmap))


@dataclass(frozen=True)
class CommaResult:
    cat: FinCat
    projA: FunctorSpec
    projB: FunctorSpec


def comma(F: FunctorSpec, G: FunctorSpec) -> CommaResult:
    """The comma category (F/G) with its two projections.

    Objects are triples (a, b, f: Fa -> Gb); a morphism (u, v) from
    (a, b, f) to (a', b', f') satisfies Gv . f = f' . Fu.  Morphism ids
    record both comparison arrows because the pair (u, v) alone does not
    determine its endpoints in a non-thin codomain.
    """
    return _with_table(F, G, *comma_walk(F, G))


def pullback(F: FunctorSpec, G: FunctorSpec) -> CommaResult:
    """Strict pullback: the full subcategory of (F/G) on the objects whose
    comparison arrow is an identity, with the same ids and order."""
    return _with_table(F, G, *pullback_walk(F, G))


def comma_walk(F: FunctorSpec, G: FunctorSpec):
    """The walk of comma(F, G): its category with an empty table, and the
    parts of its objects and morphisms."""
    return _walk(F, G, F.cod.hom)


def pullback_walk(F: FunctorSpec, G: FunctorSpec):
    """The walk of pullback(F, G), as comma_walk."""
    identity = F.cod.identity
    return _walk(F, G, lambda x, y: (identity[x],) if x == y else ())


def _walk(F: FunctorSpec, G: FunctorSpec, arrows):
    """The objects, morphisms and identities of the full subcategory of
    (F/G) on the objects whose comparison arrow Fa -> Gb is one of
    arrows(Fa, Gb), as a FinCat with an empty table; with {(a, b, f): object
    id} and the parts (u, v, f, f2) of each morphism, in declaration order.
    An identity is recorded as the morphism (id_a, id_b, f, f) is made.
    A composite of C that a row does not hold has an identity in it, and is
    read by rule."""
    if F.cod != G.cod:
        raise CodMismatch("comma requires a common codomain")
    C, id_a, id_b = F.cod, F.dom.identity, G.dom.identity
    rows, units = C.compose, C._identity_set
    pairs = ((a, b) for a in F.dom.objects for b in G.dom.objects)
    arrows_at = {(a, b): arrows(F.omap[a], G.omap[b]) for a, b in pairs}
    obj_id = {(a, b, f): tuple_id(a, b, f) for (a, b), fs in arrows_at.items() for f in fs}
    morphisms, parts, identity = [], [], {}
    vs = [(v, G.mmap[v.id], rows.get(G.mmap[v.id], _NO_ROW), G.mmap[v.id] in units,
           id_b[v.src] == v.id) for v in G.dom.morphisms]
    for u in F.dom.morphisms:
        Fu, u_is_id = F.mmap[u.id], id_a[u.src] == u.id
        after_Fu = {  # b -> [(f2, f2 . Fu) for the f2 of the objects (u.tgt, b, f2)]
            b: [(f2, rows.get(f2, _NO_ROW).get(Fu, f2 if Fu in units else Fu))
                for f2 in arrows_at[u.tgt, b]] for b in G.dom.objects
        }
        for v, Gv, row_v, Gv_unit, v_is_id in vs:
            sources = arrows_at[u.src, v.src]
            if not sources:
                continue
            targets, both_ids = after_Fu[v.tgt], u_is_id and v_is_id
            for f in sources:
                left = row_v.get(f, f if Gv_unit else Gv)
                for f2, right in targets:
                    if right != left:
                        continue
                    mid = tuple_id(u.id, v.id, f, f2)
                    src = obj_id[u.src, v.src, f]
                    morphisms.append(Morphism(mid, src, obj_id[u.tgt, v.tgt, f2]))
                    parts.append((u.id, v.id, f, f2))
                    if both_ids and f2 == f:
                        identity[src] = mid
    return FinCat(tuple(obj_id.values()), tuple(morphisms), identity, {}), obj_id, parts


def _with_table(F: FunctorSpec, G: FunctorSpec, cat, obj_id, parts) -> CommaResult:
    """The walked category with its table filled in place, and both
    projections: the composite of (u1, v1, f1, f2) and (u2, v2, f2, f3) is
    (u2 . u1, v2 . v1, f1, f3).  The table holds no unit pair."""
    ids = [m.id for m in cat.morphisms]
    mor_data, mor_id = dict(zip(ids, parts)), dict(zip(parts, ids))
    units = cat._identity_set
    for g, (u2, v2, _, f3) in zip(cat.morphisms, parts):
        for f in () if g.id in units else cat.into(g.src):
            if f.id not in units:
                u1, v1, f1, _ = mor_data[f.id]
                uv = F.dom.composite(u2, u1), G.dom.composite(v2, v1)
                cat.compose.setdefault(g.id, {})[f.id] = mor_id[(*uv, f1, f3)]

    def projection(i, D):
        omap = {oid: key[i] for key, oid in obj_id.items()}
        return FunctorSpec(cat, D, omap, {mid: key[i] for mid, key in mor_data.items()})

    return CommaResult(cat=cat, projA=projection(0, F.dom), projB=projection(1, G.dom))


def connected_components(objects, edges):
    """Partition objects by zig-zags of (a, b) edges, ignoring direction.

    Blocks are ordered by least member (the order of objects), members
    likewise.
    """
    parent = {o: o for o in objects}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        a, b = find(a), find(b)
        if a != b:
            parent[b] = a
    blocks = {}
    for o in objects:
        blocks.setdefault(find(o), []).append(o)
    return list(blocks.values())
