"""Small, independent models of the categories the benchmark generates.

The benchmark works out every expected ``fibcat`` output from these models,
so no expected answer comes from running ``fibcat`` itself.  The models
follow the documented workspace conventions: identities that a file omits
are named ``id:<object>`` and come after the declared morphisms, and every
listing runs in declaration order.
"""

from __future__ import annotations

DAG_TRIES = 5000


class Cat:
    """A finite category with every morphism in the order ``fibcat load``
    gives it.

    ``comp`` holds the composites of non-identity pairs; unit composites are
    implied.  With ``explicit_ids`` the identities are declared in the file
    under their own names (as the MCG ids ``(a->a)`` are); otherwise they are
    left for the loader to synthesize.
    """

    def __init__(self, objects, arrows, ident, comp, explicit_ids=False):
        self.objects = list(objects)
        self.ident = dict(ident)
        self.comp = dict(comp)
        self.explicit_ids = explicit_ids
        self.ends = {mid: (s, t) for mid, s, t in arrows}
        if explicit_ids:
            self.morphisms = [mid for mid, _, _ in arrows]
        else:
            self.morphisms = [mid for mid, _, _ in arrows] + [self.ident[o] for o in self.objects]
            for o in self.objects:
                self.ends[self.ident[o]] = (o, o)
        self.identities = set(self.ident.values())
        self._hom = {}
        for mid in self.morphisms:
            self._hom.setdefault(self.ends[mid], []).append(mid)
        self._out = {}
        for mid in self.morphisms:
            self._out.setdefault(self.ends[mid][0], []).append(mid)

    def src(self, mid):
        return self.ends[mid][0]

    def tgt(self, mid):
        return self.ends[mid][1]

    def hom(self, a, b):
        return self._hom.get((a, b), [])

    def out(self, a):
        return self._out.get(a, [])

    def compose(self, g, f):
        """g after f."""
        if f in self.identities:
            return g
        if g in self.identities:
            return f
        return self.comp[(g, f)]

    def non_identity(self):
        return [m for m in self.morphisms if m not in self.identities]

    def declared(self):
        """The morphisms a workspace file lists."""
        return self.morphisms if self.explicit_ids else self.non_identity()

    def op(self):
        return Cat(
            self.objects,
            [(m, self.tgt(m), self.src(m)) for m in self.declared()],
            self.ident,
            {(f, g): h for (g, f), h in self.comp.items()},
            self.explicit_ids,
        )

    def to_doc(self):
        compose = {}
        for (g, f), h in self.comp.items():
            compose.setdefault(g, {})[f] = h
        doc = {
            "objects": list(self.objects),
            "morphisms": [{"id": m, "src": self.src(m), "tgt": self.tgt(m)} for m in self.declared()],
            "compose": compose,
        }
        if self.explicit_ids:
            doc["identity"] = dict(self.ident)
        return doc


class Functor:
    def __init__(self, dom: Cat, cod: Cat, omap, mmap):
        self.dom, self.cod = dom, cod
        self.omap = dict(omap)
        self.mmap = dict(mmap)  # non-identity morphisms; identities go to identities

    def fmor(self, mid):
        if mid in self.dom.identities:
            return self.cod.ident[self.omap[self.dom.src(mid)]]
        return self.mmap[mid]

    def op(self):
        return Functor(self.dom.op(), self.cod.op(), self.omap, self.mmap)

    def to_doc(self, dom_name, cod_name):
        return {"dom": dom_name, "cod": cod_name, "omap": dict(self.omap), "mmap": dict(self.mmap)}


def identity_functor(c: Cat) -> Functor:
    return Functor(c, c, {o: o for o in c.objects}, {m: m for m in c.non_identity()})


# --- free categories on DAGs -------------------------------------------------


def _paths(objects, edges):
    """Every non-empty edge path, grouped by source object, shortest first."""
    by_src = {}
    for eid, s, t in edges:
        by_src.setdefault(s, []).append((eid, t))
    paths = []
    for o in objects:
        frontier = [((), o)]
        while frontier:
            nxt = []
            for path, at in frontier:
                for eid, t in by_src.get(at, []):
                    nxt.append((path + (eid,), t))
            paths.extend((path, o, t) for path, t in nxt)
            frontier = nxt
    return paths


def free_dag(rng, n_objects, n_edges, n_morphisms, n_composites=None, *, prefix, chain=False):
    """The free category on a seeded DAG with exactly ``n_objects`` objects,
    ``n_edges`` generating edges and ``n_morphisms`` morphisms, identities
    included, and the edge path of each non-identity morphism.  With
    ``n_composites``, the number of composable pairs of non-identity
    morphisms is exact too.

    Edges run from lower to higher object index; with ``chain`` the edges
    v0 -> v1 -> ... come first, so every monotone object map into this
    category has a path for every edge.  Draws repeat until the counts are
    exact, so every seed gives the same amount of work.
    """
    objects = [f"{prefix}{i}" for i in range(n_objects)]
    pairs = [(i, j) for i in range(n_objects) for j in range(i + 1, n_objects)]
    fixed = [(i, i + 1) for i in range(n_objects - 1)] if chain else []
    free_pairs = [p for p in pairs if p not in fixed]
    for _ in range(DAG_TRIES):
        chosen = fixed + rng.sample(free_pairs, n_edges - len(fixed))
        edges = [(f"e{k}", objects[i], objects[j]) for k, (i, j) in enumerate(sorted(chosen))]
        paths = _paths(objects, edges)
        if len(paths) + n_objects == n_morphisms and (
            n_composites is None
            or sum(1 for _, _, t in paths for _, s, _ in paths if s == t) == n_composites
        ):
            break
    else:
        raise ValueError(f"no DAG with {n_objects} objects, {n_edges} edges, {n_morphisms} morphisms, {n_composites} composites")
    name = {path: "p:" + ".".join(path) for path, _, _ in paths}
    arrows = [(name[path], s, t) for path, s, t in paths]
    comp = {}
    for path_f, _, t in paths:
        for path_g, s2, _ in paths:
            if s2 == t:
                comp[(name[path_g], name[path_f])] = name[path_f + path_g]
    cat = Cat(objects, arrows, {o: f"id:{o}" for o in objects}, comp)
    return cat, {name[path]: path for path, _, _ in paths}


def extend(cat: Cat, path_edges, edge_value, identity, then):
    """The value of every non-identity morphism of a free category, from the
    value of each edge: ``then(acc, edge value)`` folds along the path."""
    out = {}
    for mid, path in path_edges.items():
        acc = identity(cat.src(mid))
        for eid in path:
            acc = then(acc, edge_value[eid])
        out[mid] = acc
    return out


# --- categories of elements --------------------------------------------------


def pair(a, b):
    return f"({a}|{b})"


def elements(base: Cat, fibres, action):
    """The category of elements of a contravariant presheaf, with its
    projection, named as ``fibcat elements`` names them: objects (c|x) and a
    morphism (u|y) : (c|action[u][y]) -> (c'|y) per u : c -> c'.

    ``action`` covers the non-identity morphisms of ``base``; composites
    that land on a base identity are the synthesized total identities.
    """
    objects = [pair(c, x) for c in base.objects for x in fibres[c]]
    non_id = base.non_identity()
    arrows, mmap = [], {}
    for u in non_id:
        s, t = base.src(u), base.tgt(u)
        for y in fibres[t]:
            mid = pair(u, y)
            arrows.append((mid, pair(s, action[u][y]), pair(t, y)))
            mmap[mid] = u
    comp = {}
    into = {}
    for u in non_id:
        into.setdefault(base.tgt(u), []).append(u)
    for v in non_id:
        for u in into.get(base.src(v), []):
            h = base.compose(v, u)
            for z in fibres[base.tgt(v)]:
                outer = pair(v, z)
                inner = pair(u, action[v][z])
                comp[(outer, inner)] = (
                    "id:" + pair(base.src(u), action[u][action[v][z]]) if h in base.identities else pair(h, z)
                )
    total = Cat(objects, arrows, {o: f"id:{o}" for o in objects}, comp)
    omap = {pair(c, x): c for c in base.objects for x in fibres[c]}
    return total, Functor(total, base, omap, mmap)


def mcg(n):
    """The maximally connected groupoid on m0..m{n-1}, with the ``(a->b)``
    ids that ``fibcat mcg`` uses, identities included."""
    objects = [f"m{i}" for i in range(n)]
    arrows = [(f"({a}->{b})", a, b) for a in objects for b in objects]
    comp = {}
    for a in objects:
        for b in objects:
            for c in objects:
                if a != b and b != c:
                    comp[(f"({b}->{c})", f"({a}->{b})")] = f"({a}->{c})"
    return Cat(objects, arrows, {a: f"({a}->{a})" for a in objects}, comp, explicit_ids=True)


# --- comma categories and the comprehensive factorization ------------------


def components(F: Functor, d):
    """The connected components of the comma category (F/d), as fibcat
    names them: blocks of objects (a|*|f), f : Fa -> d, ordered and named
    by their least member in declaration order.  Returns the block names and
    the block of each (a, f)."""
    A, B = F.dom, F.cod
    members = [(a, f) for a in A.objects for f in B.hom(F.omap[a], d)]
    index = {m: i for i, m in enumerate(members)}
    parent = list(range(len(members)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for u in A.non_identity():
        fu = F.fmor(u)
        for f2 in B.hom(F.omap[A.tgt(u)], d):
            # the comma morphism (u, id) : (a, f2 . Fu) -> (a', f2)
            i, j = find(index[(A.src(u), B.compose(f2, fu))]), find(index[(A.tgt(u), f2)])
            parent[max(i, j)] = min(i, j)
    names, block_of = [], {}
    for i, (a, f) in enumerate(members):
        root = find(i)
        if root == i:
            names.append(f"({a}|*|{f})")
        block_of[(a, f)] = "({}|*|{})".format(*members[root])
    return names, block_of


def factorize(F: Functor):
    """The comprehensive factorization F = p . s, s initial and p a discrete
    opfibration.  The middle category is the category of elements of
    d -> pi0(F/d); returns it with s."""
    A, B = F.dom, F.cod
    comps = {d: components(F, d) for d in B.objects}
    rep = {}
    for d, (_, block_of) in comps.items():
        for member, name in block_of.items():
            rep.setdefault((d, name), member)
    objects = [pair(d, n) for d in B.objects for n in comps[d][0]]
    arrows, act = [], {}
    for g in B.non_identity():
        d, d2 = B.src(g), B.tgt(g)
        for n in comps[d][0]:
            a, f = rep[(d, n)]
            act[(g, n)] = comps[d2][1][(a, B.compose(g, f))]
            arrows.append((pair(g, n), pair(d, n), pair(d2, act[(g, n)])))
    comp = {}
    for g in B.non_identity():
        for g2 in B.out(B.tgt(g)):
            if g2 in B.identities:
                continue
            for n in comps[B.src(g)][0]:
                h = B.compose(g2, g)
                comp[(pair(g2, act[(g, n)]), pair(g, n))] = (
                    "id:" + pair(B.src(g), n) if h in B.identities else pair(h, n)
                )
    mid = Cat(objects, arrows, {o: f"id:{o}" for o in objects}, comp)
    unit = {a: comps[F.omap[a]][1][(a, B.ident[F.omap[a]])] for a in A.objects}
    omap = {a: pair(F.omap[a], unit[a]) for a in A.objects}
    mmap = {}
    for u in A.non_identity():
        fu, a = F.fmor(u), A.src(u)
        mmap[u] = "id:" + omap[a] if fu in B.identities else pair(fu, unit[a])
    return mid, Functor(A, mid, omap, mmap)


def triple(a, b, f):
    return f"({a}|{b}|{f})"


def comma_with_identity(F: Functor):
    """Objects and non-identity morphisms of the comma category (F/id),
    each listed as ``fibcat comma`` lists it; objects are (a, b, f)."""
    A, B = F.dom, F.cod
    objects = [(a, b, f) for a in A.objects for b in B.objects for f in B.hom(F.omap[a], b)]
    morphisms = []
    for u in A.morphisms:
        a, a2 = A.src(u), A.tgt(u)
        fu = F.fmor(u)
        for v in B.morphisms:
            if u in A.identities and v in B.identities:
                continue
            b, b2 = B.src(v), B.tgt(v)
            targets = B.hom(F.omap[a2], b2)
            for f in B.hom(F.omap[a], b):
                left = B.compose(v, f)
                for f2 in targets:
                    if B.compose(f2, fu) == left:
                        morphisms.append((f"({u}|{v}|{f}|{f2})", (a, b, f), (a2, b2, f2)))
    return objects, morphisms
