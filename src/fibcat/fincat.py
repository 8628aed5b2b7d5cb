"""Finite categories, functors and set-valued functors, with validators.

Everything downstream (fibrations, the Grothendieck construction, the
comprehensive factorization, the pregroup semantics) is phrased in terms of
the three types defined here.  Categories carry an explicit, total
composition table so every law is exhaustively checkable; all values are
immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import CodMismatch, MalformedSpec


@dataclass(frozen=True)
class Morphism:
    id: str
    src: str
    tgt: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple = ()

    @staticmethod
    def from_violations(violations):
        vs = tuple(violations)
        return ValidationReport(ok=not vs, violations=vs)


def _violation(law, witness):
    return {"law": law, "witness": witness}


@dataclass(frozen=True)
class FinCat:
    """A finite category given by explicit data.

    objects and morphisms are kept in declaration order; every enumeration
    in the library iterates in that order, so constructions are
    deterministic.  ``compose`` maps (g, f) with tgt(f) = src(g) to the id
    of g after f.  The derived indexes read ``objects`` and ``morphisms``
    only, so a constructor may fill ``compose`` after building the category.
    """

    objects: tuple
    morphisms: tuple  # of Morphism
    identity: dict  # object id -> morphism id
    compose: dict  # (g id, f id) -> morphism id

    # derived lookups, filled in __post_init__
    _by_id: dict = field(default_factory=dict, repr=False, compare=False)
    _obj_index: dict = field(default_factory=dict, repr=False, compare=False)
    _into: dict = field(default_factory=dict, repr=False, compare=False)
    _hom: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "morphisms", tuple(self.morphisms))
        object.__setattr__(self, "_by_id", {m.id: m for m in self.morphisms})
        object.__setattr__(
            self, "_obj_index", {c: i for i, c in enumerate(self.objects)}
        )
        into, hom = {}, {}
        for m in self.morphisms:
            into.setdefault(m.tgt, []).append(m)
            hom.setdefault((m.src, m.tgt), []).append(m.id)
        object.__setattr__(self, "_into", {c: tuple(ms) for c, ms in into.items()})
        object.__setattr__(self, "_hom", hom)

    def has_object(self, c):
        return c in self._obj_index

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

    def composable(self, g, f):
        return self.tgt(f) == self.src(g)

    def into(self, c):
        """The morphisms with target c, in declaration order."""
        return self._into.get(c, ())

    def hom(self, a, b):
        return list(self._hom.get((a, b), ()))

    def composable_pairs(self):
        for g in self.morphisms:
            for f in self.into(g.src):
                yield g.id, f.id


def _check_category_wellformed(c: FinCat):
    declared = {m.id for m in c.morphisms}
    if len(declared) != len(c.morphisms):
        raise MalformedSpec("duplicate morphism ids")
    if len(set(c.objects)) != len(c.objects):
        raise MalformedSpec("duplicate object ids")
    for m in c.morphisms:
        for end in (m.src, m.tgt):
            if not c.has_object(end):
                raise MalformedSpec(f"morphism {m.id} references unknown object {end}")
    for obj, mid in c.identity.items():
        if not c.has_object(obj):
            raise MalformedSpec(f"identity map references unknown object {obj}")
        if mid not in declared:
            raise MalformedSpec(f"identity of {obj} references unknown morphism {mid}")
    for (g, f), h in c.compose.items():
        for mid in (g, f, h):
            if mid not in declared:
                raise MalformedSpec(f"compose table references unknown morphism {mid}")


def validate_category(c: FinCat) -> ValidationReport:
    """Check the category laws; structural dangling ids raise MalformedSpec."""
    _check_category_wellformed(c)
    violations = []
    for obj in c.objects:
        mid = c.identity.get(obj)
        if mid is None:
            violations.append(_violation("identity-totality", (obj,)))
            continue
        m = c.morphism(mid)
        if m.src != obj or m.tgt != obj:
            violations.append(_violation("identity-endpoints", (obj, mid)))
    for g, f in c.composable_pairs():
        if (g, f) not in c.compose:
            violations.append(_violation("composition-totality", (g, f)))
    for (g, f), h in c.compose.items():
        if c.tgt(f) != c.src(g):
            violations.append(_violation("composition-composability", (g, f)))
            continue
        if c.src(h) != c.src(f) or c.tgt(h) != c.tgt(g):
            violations.append(_violation("endpoint-coherence", (g, f, h)))
    # unit laws
    for m in c.morphisms:
        lid = c.identity.get(m.tgt)
        rid = c.identity.get(m.src)
        if rid is not None and (m.id, rid) in c.compose and c.compose[(m.id, rid)] != m.id:
            violations.append(_violation("right-unit", (m.id, rid)))
        if lid is not None and (lid, m.id) in c.compose and c.compose[(lid, m.id)] != m.id:
            violations.append(_violation("left-unit", (lid, m.id)))
    # associativity, only meaningful where the table is total enough
    for h in c.morphisms:
        for g in c.into(h.src):
            for f in c.into(g.src):
                gf = c.compose.get((g.id, f.id))
                hg = c.compose.get((h.id, g.id))
                if gf is None or hg is None:
                    continue
                left = c.compose.get((h.id, gf))
                right = c.compose.get((hg, f.id))
                if left is None or right is None:
                    continue
                if left != right:
                    violations.append(_violation("associativity", (h.id, g.id, f.id)))
    return ValidationReport.from_violations(violations)


@dataclass(frozen=True)
class FunctorSpec:
    dom: FinCat
    cod: FinCat
    omap: dict  # object id -> object id
    mmap: dict  # morphism id -> morphism id

    @cached_property
    def _index(self):
        """Fibre members per codomain object, domain morphisms per image,
        and lifts per (image, domain target), each in declaration order.
        Built on first use, so omap and mmap must be complete by then."""
        members, over, lifts = {}, {}, {}
        for e in self.dom.objects:
            members.setdefault(self.omap[e], []).append(e)
        for m in self.dom.morphisms:
            u = self.mmap[m.id]
            over.setdefault(u, []).append(m.id)
            lifts.setdefault((u, m.tgt), []).append(m.id)
        return members, over, {k: tuple(hs) for k, hs in lifts.items()}

    def lifts(self, u, e):
        """The domain morphisms over u with target e, in declaration order."""
        return self._index[2].get((u, e), ())


def _check_functor_wellformed(F: FunctorSpec):
    for c in F.dom.objects:
        if c not in F.omap:
            raise MalformedSpec(f"omap missing object {c}")
        if not F.cod.has_object(F.omap[c]):
            raise MalformedSpec(f"omap({c}) = {F.omap[c]} is not a codomain object")
    for m in F.dom.morphisms:
        if m.id not in F.mmap:
            raise MalformedSpec(f"mmap missing morphism {m.id}")
        if not F.cod.has_morphism(F.mmap[m.id]):
            raise MalformedSpec(f"mmap({m.id}) = {F.mmap[m.id]} is not a codomain morphism")


def validate_functor(F: FunctorSpec) -> ValidationReport:
    _check_functor_wellformed(F)
    violations = []
    for m in F.dom.morphisms:
        img = F.cod.morphism(F.mmap[m.id])
        if img.src != F.omap[m.src] or img.tgt != F.omap[m.tgt]:
            violations.append(_violation("endpoint-preservation", (m.id,)))
    for c in F.dom.objects:
        mid = F.dom.identity[c]
        if F.mmap[mid] != F.cod.identity[F.omap[c]]:
            violations.append(_violation("identity-preservation", (c,)))
    for (g, f), h in F.dom.compose.items():
        img = F.cod.compose.get((F.mmap[g], F.mmap[f]))
        if img != F.mmap[h]:
            violations.append(_violation("composition-preservation", (g, f)))
    return ValidationReport.from_violations(violations)


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
        compose={("id:*", "id:*"): "id:*"},
    )


CONTRAVARIANT = "contravariant"
COVARIANT = "covariant"


@dataclass(frozen=True)
class SetValuedFunctor:
    """A finite set per object and a function per morphism.

    For contravariant W and f: A -> B, action(f) maps eltset(B) to
    eltset(A); for covariant, the other way around.
    """

    base: FinCat
    variance: str
    eltset: dict  # object id -> tuple of element ids
    action: dict  # morphism id -> {element id -> element id}

    def src_set(self, mid):
        m = self.base.morphism(mid)
        return self.eltset[m.tgt if self.variance == CONTRAVARIANT else m.src]

    def tgt_set(self, mid):
        m = self.base.morphism(mid)
        return self.eltset[m.src if self.variance == CONTRAVARIANT else m.tgt]


def validate_set_valued(W: SetValuedFunctor) -> ValidationReport:
    if W.variance not in (CONTRAVARIANT, COVARIANT):
        raise MalformedSpec(f"unknown variance {W.variance}")
    for c in W.base.objects:
        if c not in W.eltset:
            raise MalformedSpec(f"eltset missing object {c}")
    violations = []
    for m in W.base.morphisms:
        table = W.action.get(m.id)
        if table is None:
            raise MalformedSpec(f"action missing morphism {m.id}")
        dom_set, cod_set = set(W.src_set(m.id)), set(W.tgt_set(m.id))
        if set(table) != dom_set or not set(table.values()) <= cod_set:
            violations.append(_violation("action-endpoints", (m.id,)))
    if violations:
        return ValidationReport.from_violations(violations)
    for c in W.base.objects:
        table = W.action[W.base.identity[c]]
        if any(table[x] != x for x in W.eltset[c]):
            violations.append(_violation("identity-action", (c,)))
    for (g, f), h in W.base.compose.items():
        if W.variance == CONTRAVARIANT:
            composite = {x: W.action[f][W.action[g][x]] for x in W.action[h]}
        else:
            composite = {x: W.action[g][W.action[f][x]] for x in W.action[h]}
        if composite != W.action[h]:
            violations.append(_violation("composition-action", (g, f)))
    return ValidationReport.from_violations(violations)


def opposite(c: FinCat) -> FinCat:
    """Same ids, src/tgt swapped, compose transposed.  An involution."""
    return FinCat(
        objects=c.objects,
        morphisms=tuple(Morphism(m.id, m.tgt, m.src) for m in c.morphisms),
        identity=dict(c.identity),
        compose={(f, g): h for (g, f), h in c.compose.items()},
    )


def opposite_functor(F: FunctorSpec) -> FunctorSpec:
    return FunctorSpec(opposite(F.dom), opposite(F.cod), dict(F.omap), dict(F.mmap))


def _triple_id(a, b, f):
    return f"({a}|{b}|{f})"


def _square_id(u, v, f, f2):
    return f"({u}|{v}|{f}|{f2})"


@dataclass(frozen=True)
class CommaResult:
    cat: FinCat
    projA: FunctorSpec
    projB: FunctorSpec
    # object id -> (a, b, f); kept so pullback and the factorization can
    # recover components without re-parsing encoded ids
    obj_data: dict = field(default_factory=dict, repr=False, compare=False)


def comma(F: FunctorSpec, G: FunctorSpec) -> CommaResult:
    """The comma category (F/G) with its two projections.

    Objects are triples (a, b, f: Fa -> Gb); a morphism (u, v) from
    (a, b, f) to (a', b', f') satisfies Gv . f = f' . Fu.  Morphism ids
    record both comparison arrows because the pair (u, v) alone does not
    determine its endpoints in a non-thin codomain.
    """
    if F.cod != G.cod:
        raise CodMismatch("comma requires a common codomain")
    C = F.cod
    objects, obj_data, by_pair = [], {}, {}
    for a in F.dom.objects:
        for b in G.dom.objects:
            for f in C.hom(F.omap[a], G.omap[b]):
                oid = _triple_id(a, b, f)
                objects.append(oid)
                obj_data[oid] = (a, b, f)
                by_pair.setdefault((a, b), []).append(oid)
    morphisms, mor_data = [], {}
    for u in F.dom.morphisms:
        for v in G.dom.morphisms:
            for src_oid in by_pair.get((u.src, v.src), ()):
                f = obj_data[src_oid][2]
                left = C.compose[(G.mmap[v.id], f)]
                for f2 in C.hom(F.omap[u.tgt], G.omap[v.tgt]):
                    if C.compose[(f2, F.mmap[u.id])] != left:
                        continue
                    mid = _square_id(u.id, v.id, f, f2)
                    tgt_oid = _triple_id(u.tgt, v.tgt, f2)
                    morphisms.append(Morphism(mid, src_oid, tgt_oid))
                    mor_data[mid] = (u.id, v.id, f, f2)
    identity = {}
    for oid in objects:
        a, b, f = obj_data[oid]
        identity[oid] = _square_id(F.dom.identity[a], G.dom.identity[b], f, f)
    cat = FinCat(tuple(objects), tuple(morphisms), identity, {})
    for g, f in cat.composable_pairs():
        u2, v2, _, f3 = mor_data[g]
        u1, v1, f1, _ = mor_data[f]
        cat.compose[(g, f)] = _square_id(
            F.dom.compose[(u2, u1)], G.dom.compose[(v2, v1)], f1, f3
        )
    projA = FunctorSpec(
        dom=cat,
        cod=F.dom,
        omap={oid: obj_data[oid][0] for oid in objects},
        mmap={mid: mor_data[mid][0] for mid in mor_data}
        | {identity[oid]: F.dom.identity[obj_data[oid][0]] for oid in objects},
    )
    projB = FunctorSpec(
        dom=cat,
        cod=G.dom,
        omap={oid: obj_data[oid][1] for oid in objects},
        mmap={mid: mor_data[mid][1] for mid in mor_data}
        | {identity[oid]: G.dom.identity[obj_data[oid][1]] for oid in objects},
    )
    return CommaResult(cat=cat, projA=projA, projB=projB, obj_data=obj_data)


def full_subcategory(c: FinCat, keep) -> FinCat:
    keep = set(keep)
    objects = tuple(o for o in c.objects if o in keep)
    morphisms = tuple(m for m in c.morphisms if m.src in keep and m.tgt in keep)
    kept_ids = {m.id for m in morphisms}
    return FinCat(
        objects=objects,
        morphisms=morphisms,
        identity={o: c.identity[o] for o in objects},
        compose={k: v for k, v in c.compose.items() if k[0] in kept_ids and k[1] in kept_ids},
    )


def _restrict_functor(F: FunctorSpec, sub: FinCat) -> FunctorSpec:
    return FunctorSpec(
        dom=sub,
        cod=F.cod,
        omap={o: F.omap[o] for o in sub.objects},
        mmap={m.id: F.mmap[m.id] for m in sub.morphisms},
    )


def pullback(F: FunctorSpec, G: FunctorSpec) -> CommaResult:
    """Strict pullback: the comma objects whose comparison arrow is an identity."""
    cm = comma(F, G)
    C = F.cod
    keep = [oid for oid in cm.cat.objects if C.is_identity(cm.obj_data[oid][2])]
    sub = full_subcategory(cm.cat, keep)
    return CommaResult(
        cat=sub,
        projA=_restrict_functor(cm.projA, sub),
        projB=_restrict_functor(cm.projB, sub),
        obj_data={oid: cm.obj_data[oid] for oid in keep},
    )


def connected_components(c: FinCat):
    """Partition objects by zig-zags of morphisms, ignoring direction.

    Blocks are ordered by least member (declaration order), members likewise.
    """
    parent = {o: o for o in c.objects}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m in c.morphisms:
        a, b = find(m.src), find(m.tgt)
        if a != b:
            parent[b] = a
    blocks = {}
    for o in c.objects:
        blocks.setdefault(find(o), []).append(o)
    index = c._obj_index
    return sorted(blocks.values(), key=lambda blk: index[blk[0]])
