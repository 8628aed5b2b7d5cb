"""Finite categories, functors and set-valued functors, with validators.

Everything downstream (fibrations, the Grothendieck construction, the
comprehensive factorization, the pregroup semantics) is phrased in terms of
the three types defined here.  Categories carry an explicit, total
composition table so every law is exhaustively checkable.  Values are
immutable once built, except that a constructor may fill a new category's
``compose`` in place before handing it out.

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
from itertools import islice

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


# the laws a validator checks at each entry of a composition table, in one walk
_TABLE_LAWS = {"composition-composability", "endpoint-coherence",
               "composition-preservation", "composition-action"}


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
    g, for the f with tgt(f) = src(g), so a reader indexes a row it holds.
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
        for g in self.morphisms:
            for f in self.into(g.src):
                yield g.id, f.id


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


_NO_ROW = {}  # the row of a morphism with no composites; never written


def complete_units(cat: FinCat):
    """Fill in, in place and each into its row, the composites the unit laws
    force, in the order of ``composable_pairs``: g . i = g and i . f = f for
    an identity i.  Each goes after the entries its row held, and a row it
    makes after the rows the table held.  Returns the pairs filled, in that
    order.

    Only the pairs with an identity in them are visited.  A composite that
    is still missing is validate_category's composition-totality."""
    identities = cat._identity_set
    units_into = _grouped((m.tgt, m) for m in cat.morphisms if m.id in identities)
    compose, filled = cat.compose, []
    for g in cat.morphisms:
        fs = cat.into(g.src) if g.id in identities else units_into.get(g.src, ())
        row = compose.setdefault(g.id, {}) if fs else _NO_ROW  # so no row is empty
        for f in fs:
            if f.id not in row:
                row[f.id] = g.id if f.id in identities else f.id
                filled.append((g.id, f.id))
    return filled


def _repeated(ids, path, what):
    """The MalformedSpec at the first id in ids that repeats an earlier one."""
    seen = set()
    for i, x in enumerate(ids):
        if x in seen:
            return MalformedSpec(path.format(i), f"duplicate {what} id")
        seen.add(x)


def validate_category(c: FinCat) -> ValidationReport:
    """Check the category laws; a dangling or repeated id raises MalformedSpec.

    The ends of the morphisms and the identities are checked first.  Then
    one walk over the table, a row at a time, resolves each entry's ids,
    raising at the first that does not resolve, checks composability and
    endpoint coherence, and counts the composable entries.  The composable
    pairs are walked only when there are more of them than that count, to
    list the missing ones.  Repeated ids are checked last.  Once every other
    law holds, the table is total, so a row with fewer than two entries
    holds only its unit entry; a triple with an identity in it, or through
    such a row, is associative by the unit laws, so it is skipped.  If the
    category is thin, with at most one arrow per hom-set, no triple is
    walked, since both composites of each lie in one hom-set."""
    return _validate_category(c)


@_kept
def _validate_category(c: FinCat, written=None) -> ValidationReport:
    """validate_category, which passes no written.  cli.load passes the
    length of each row as the file wrote it, before complete_units appended
    the unit composites to it and the rows it made after the file's rows.
    Once every object's identity has the right ends, each filled entry
    composes, its ends cohere and it obeys the unit laws, so the walk reads
    only the file's entries and counts the filled ones as composable, and
    the unit laws are checked only if a file entry at a unit position is
    wrong.  The report is the one validate_category gives."""
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
    compose, composable, entry_violations = c.compose, 0, []
    trusted = written is not None and not violations  # the filled entries are lawful
    if trusted:
        rows, units = written, c._identity_set
        composable = sum(map(len, compose.values())) - sum(written.values())
    else:
        rows, units = dict.fromkeys(compose), ()
    unit_laws = not trusted  # whether the unit laws can fail
    for g, n in rows.items():
        mg, g_unit = by_id.get(g), g in units
        if mg is None:
            raise MalformedSpec(f"compose.{g}", "unknown morphism")
        for f, h in islice(compose[g].items(), n):
            try:
                mf, mh = by_id[f], by_id[h]
            except KeyError:
                what = "morphism" if f not in by_id else "composite"
                raise MalformedSpec(f"compose.{g}.{f}", f"unknown {what}") from None
            if mf.tgt != mg.src:
                entry_violations.append(_violation("composition-composability", (g, f)))
                continue
            composable += 1
            if mh.src != mf.src or mh.tgt != mg.tgt:
                entry_violations.append(_violation("endpoint-coherence", (g, f, h)))
            if (g_unit and h != f) or (f in units and h != g):
                unit_laws = True
    if len(by_id) != len(c.morphisms):
        raise _repeated([m.id for m in c.morphisms], "morphisms[{}].id", "morphism")
    if len(objects) != len(c.objects):
        raise _repeated(c.objects, "objects[{}]", "object")
    if composable != sum(len(c._into.get(g.src, ())) for g in c.morphisms):
        missing = (p for p in c.composable_pairs() if p[1] not in compose.get(p[0], _NO_ROW))
        violations += (_violation("composition-totality", pair) for pair in missing)
    violations += entry_violations
    if unit_laws:
        for m in c.morphisms:
            lid = identity.get(m.tgt)
            rid = identity.get(m.src)
            if rid is not None and compose.get(m.id, _NO_ROW).get(rid, m.id) != m.id:
                violations.append(_violation("right-unit", (m.id, rid)))
            if lid is not None and compose.get(lid, _NO_ROW).get(m.id, m.id) != m.id:
                violations.append(_violation("left-unit", (lid, m.id)))
    # associativity, only meaningful where the table is total enough
    if not violations and len({(m.src, m.tgt) for m in c.morphisms}) == len(c.morphisms):
        return ValidationReport()
    # once every other law holds, a row shorter than 2 holds only its unit entry
    skip, least = ((), 0) if violations else (c._identity_set, 2)
    for h in c.morphisms:
        row_h = compose.get(h.id, _NO_ROW)
        if h.id in skip or len(row_h) < least:
            continue
        for g in c.into(h.src):
            row_g = compose.get(g.id, _NO_ROW)
            if g.id in skip or len(row_g) < least:
                continue
            row_hg = compose.get(row_h.get(g.id), _NO_ROW)
            for f in c.into(g.src):
                if f.id in skip:
                    continue
                try:
                    left, right = row_h[row_g[f.id]], row_hg[f.id]
                except KeyError:  # a composite is missing, so the triple says nothing
                    continue
                if left != right:
                    violations.append(_violation("associativity", (h.id, g.id, f.id)))
    return ValidationReport(tuple(violations))


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

    Once F preserves endpoints and identities, and F.dom and F.cod each
    keep a report with no violation, the entries of the domain's table with
    an identity in them are preserved by the unit laws of both, so only
    the others are walked."""
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
    settled = not violations and _kept_valid(F.dom) and _kept_valid(cod)
    units = F.dom._identity_set if settled else ()
    for g, row in F.dom.compose.items():
        if g in units:
            continue
        cod_row = cod.compose.get(mmap[g], _NO_ROW)
        for f, h in row.items():
            if f not in units and cod_row.get(mmap[f]) != mmap[h]:
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


def check_iso_over(H: FunctorSpec, Hinv: FunctorSpec, p: FunctorSpec, q: FunctorSpec):
    """Raise WitnessFailure unless H: dom(p) -> dom(q) and Hinv are inverse
    functors over the base: q . H = p and p . Hinv = q.  The second is not
    composed: given Hinv . H = id, H . Hinv = id and q . H = p, p . Hinv =
    q . H . Hinv = q, if q's maps hold only dom(q)'s keys, as those of a
    validated functor, an elements projection and a product projection do."""
    for F in (H, Hinv):
        if not validate_functor(F).ok:
            raise WitnessFailure("witness map is not a functor")
    if compose_functors(Hinv, H) != identity_functor(p.dom):
        raise WitnessFailure("H has no left inverse")
    if compose_functors(H, Hinv) != identity_functor(q.dom):
        raise WitnessFailure("H has no right inverse")
    if compose_functors(q, H) != p:
        raise WitnessFailure("triangle over the base fails")


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
        compose={"id:*": {"id:*": "id:*"}},
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
    between the right sets.  Once each identity also acts as one, on a base
    that keeps a report with no violation, the entries of the base's table
    with an identity in them act rightly by the unit laws, so only the
    others are walked."""
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
    settled = not violations and _kept_valid(W.base)
    units = W.base._identity_set if settled else ()
    return ValidationReport(tuple(violations + _composition_action(W, units)))


def _composition_action(W: SetValuedFunctor, units):
    """The composition-action violations of W at the entries of its base's
    table that have no morphism of units in them."""
    base, action, contra, violations = W.base, W.action, W.variance == CONTRAVARIANT, []
    for g, row in base.compose.items():
        if g in units:
            continue
        src, action_g = base.src(g), action[g]
        for f, h in row.items():
            if f in units or base.tgt(f) != src:
                continue  # validate_category reports a pair that does not compose
            # over the domain of the action applied first: h may have wrong endpoints
            first, then = (action_g, action[f]) if contra else (action[f], action_g)
            if {x: then[y] for x, y in first.items()} != action[h]:
                violations.append(_violation("composition-action", (g, f)))
    return violations


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
    An identity is recorded as the morphism (id_a, id_b, f, f) is made."""
    if F.cod != G.cod:
        raise CodMismatch("comma requires a common codomain")
    C, id_a, id_b = F.cod, F.dom.identity, G.dom.identity
    pairs = ((a, b) for a in F.dom.objects for b in G.dom.objects)
    arrows_at = {(a, b): arrows(F.omap[a], G.omap[b]) for a, b in pairs}
    obj_id = {(a, b, f): tuple_id(a, b, f) for (a, b), fs in arrows_at.items() for f in fs}
    morphisms, parts, identity = [], [], {}
    for u in F.dom.morphisms:
        Fu, u_is_id = F.mmap[u.id], id_a[u.src] == u.id
        for v in G.dom.morphisms:
            sources = arrows_at[u.src, v.src]
            if not sources:
                continue
            row_v, targets = C.compose[G.mmap[v.id]], arrows_at[u.tgt, v.tgt]
            both_ids = u_is_id and id_b[v.src] == v.id
            for f in sources:
                left = row_v[f]
                for f2 in targets:
                    if C.compose[f2][Fu] != left:
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
    (u2 . u1, v2 . v1, f1, f3)."""
    ids = [m.id for m in cat.morphisms]
    mor_data, mor_id = dict(zip(ids, parts)), dict(zip(parts, ids))
    for g, (u2, v2, _, f3) in zip(cat.morphisms, parts):
        row_u, row_v, row = F.dom.compose[u2], G.dom.compose[v2], {}
        for f in cat.into(g.src):
            u1, v1, f1, _ = mor_data[f.id]
            row[f.id] = mor_id[row_u[u1], row_v[v1], f1, f3]
        cat.compose[g.id] = row

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
