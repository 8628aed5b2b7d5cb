"""Shared fixtures, random generators, and independent oracles."""

import copy
import re
from collections import deque
from itertools import product as iproduct

from fibcat.errors import (
    MalformedSpec,
    SchemaError,
    TypeSyntaxError,
    UnparsedSentence,
    WitnessFailure,
)

from fibcat.fincat import (
    CONTRAVARIANT,
    COVARIANT,
    CommaResult,
    FinCat,
    FunctorSpec,
    Morphism,
    SetValuedFunctor,
    comma,
    compose_functors,
    constant_functor,
    identity_functor,
    is_plain_id,
    opposite_functor,
    terminal_category,
    tuple_id,
)
from fibcat.factor import Factorization, comprehensive_factor_opfib
from fibcat.groth import ElementsResult, elements
from fibcat.fib import is_discrete_fibration, is_fib_morphism
from fibcat.fincat import validate_functor
from fibcat.mcg import mcg
from fibcat.pregroup import (
    CONVENTIONS,
    NoReduction,
    ParseFailure,
    ReductionStep,
    ReductionWitness,
    SimpleType,
    describe,
    format_type,
    parse_sentence,
)


# --- the three-object chain and the fibration pictured over it ------------


def chain_base():
    """A -> B -> C with the composite."""
    morphisms = (
        Morphism("f", "A", "B"),
        Morphism("g", "B", "C"),
        Morphism("gf", "A", "C"),
        Morphism("id:A", "A", "A"),
        Morphism("id:B", "B", "B"),
        Morphism("id:C", "C", "C"),
    )
    compose = {"g": {"f": "gf"}}
    cat = FinCat(("A", "B", "C"), morphisms, {o: f"id:{o}" for o in "ABC"}, compose)
    scan_complete_units(cat)
    return cat


def scan_complete_units(cat):
    """fincat.complete_units as it was: a walk over every composable pair,
    found by scanning the morphism list, that fills in place the composites
    the unit laws force, up to the first pair whose composite is missing
    and not forced.  Returns that pair, or None when the table is total."""
    identities = set(cat.identity.values())
    for g in cat.morphisms:
        for f in cat.morphisms:
            if f.tgt != g.src or f.id in cat.compose.get(g.id, {}):
                continue
            if f.id in identities:
                cat.compose.setdefault(g.id, {})[f.id] = g.id
            elif g.id in identities:
                cat.compose.setdefault(g.id, {})[f.id] = f.id
            else:
                return g.id, f.id
    return None


def fig2_total():
    """Eight objects over the chain; reindexing along f is B0->A0, B1->A2,
    B2->A2 and along g is C0->B2, C1->B0."""
    objects = ("A0", "A1", "A2", "B0", "B1", "B2", "C0", "C1")
    morphisms = [Morphism(f"id:{o}", o, o) for o in objects] + [
        Morphism("f:B0", "A0", "B0"),
        Morphism("f:B1", "A2", "B1"),
        Morphism("f:B2", "A2", "B2"),
        Morphism("g:C0", "B2", "C0"),
        Morphism("g:C1", "B0", "C1"),
        Morphism("gf:C0", "A2", "C0"),
        Morphism("gf:C1", "A0", "C1"),
    ]
    compose = {"g:C0": {"f:B2": "gf:C0"}, "g:C1": {"f:B0": "gf:C1"}}
    cat = FinCat(objects, tuple(morphisms), {o: f"id:{o}" for o in objects}, compose)
    scan_complete_units(cat)
    return cat


def fig2_fibration():
    base = chain_base()
    total = fig2_total()
    omap = {o: o[0] for o in total.objects}
    mmap = {}
    for m in total.morphisms:
        if m.id.startswith("id:"):
            mmap[m.id] = f"id:{m.id[3:4]}"
        else:
            mmap[m.id] = m.id.split(":")[0]
    return FunctorSpec(total, base, omap, mmap)


def span_non_fibration():
    """e1 -> e0 <- e2 over the arrow category, both legs over the arrow."""
    base = FinCat(
        ("x", "y"),
        (Morphism("u", "x", "y"), Morphism("id:x", "x", "x"), Morphism("id:y", "y", "y")),
        {"x": "id:x", "y": "id:y"},
        {},
    )
    scan_complete_units(base)
    total = FinCat(
        ("e1", "e0", "e2"),
        (
            Morphism("a", "e1", "e0"),
            Morphism("b", "e2", "e0"),
            Morphism("id:e1", "e1", "e1"),
            Morphism("id:e0", "e0", "e0"),
            Morphism("id:e2", "e2", "e2"),
        ),
        {"e1": "id:e1", "e0": "id:e0", "e2": "id:e2"},
        {},
    )
    scan_complete_units(total)
    return FunctorSpec(
        total,
        base,
        {"e1": "x", "e2": "x", "e0": "y"},
        {"a": "u", "b": "u", "id:e1": "id:x", "id:e2": "id:x", "id:e0": "id:y"},
    )


def _category(objects, arrows, compose):
    """The category on objects with the arrows {id: (src, tgt)}, then an
    identity "id:<object>" per object, and compose completed by the unit
    laws."""
    morphisms = tuple(Morphism(m, s, t) for m, (s, t) in arrows.items())
    cat = FinCat(
        objects,
        morphisms + tuple(Morphism(f"id:{o}", o, o) for o in objects),
        {o: f"id:{o}" for o in objects},
        compose,
    )
    scan_complete_units(cat)
    return cat


def _over(total, base, omap, mmap):
    """The functor total -> base with omap, and mmap extended to the
    identities of _category."""
    units = {f"id:{e}": f"id:{c}" for e, c in omap.items()}
    return FunctorSpec(total, base, omap, {**mmap, **units})


def two_filler_functor():
    """x => y -> e over the chain A -> B -> C, where f . h1 = f . h2 = fh.
    f is the only morphism over g into e, and it is not cartesian: the pair
    (fh, f) has the two fillers h1 and h2."""
    arrows = {"h1": ("x", "y"), "h2": ("x", "y"), "f": ("y", "e"), "fh": ("x", "e")}
    total = _category(("x", "y", "e"), arrows, {"f": {"h1": "fh", "h2": "fh"}})
    return _over(
        total,
        chain_base(),
        {"x": "A", "y": "B", "e": "C"},
        {"h1": "f", "h2": "f", "f": "g", "fh": "gf"},
    )


def parallel_lifts_functor():
    """f1, f2: e' -> e over u: a -> b.  Each arrow into a has one lift at
    e', but u has two at e, and neither is cartesian: (f2, id:a) has no
    filler through f1, nor (f1, id:a) through f2."""
    base = _category(("a", "b"), {"u": ("a", "b")}, {})
    total = _category(("e'", "e"), {"f1": ("e'", "e"), "f2": ("e'", "e")}, {})
    return _over(total, base, {"e'": "a", "e": "b"}, {"f1": "u", "f2": "u"})


def missing_lift_functor():
    """x -g-> e <-f- e' over c -w-> a -u-> b, with g over u . w.  Each arrow
    into b has one lift at e, but w has none at e', so f is not cartesian:
    (g, w) has no filler."""
    base = _category(
        ("c", "a", "b"), {"w": ("c", "a"), "u": ("a", "b"), "uw": ("c", "b")}, {"u": {"w": "uw"}}
    )
    total = _category(("x", "e", "e'"), {"g": ("x", "e"), "f": ("e'", "e")}, {})
    return _over(total, base, {"x": "c", "e": "b", "e'": "a"}, {"g": "uw", "f": "u"})

# --- random structures ----------------------------------------------------


class DagCategory:
    """A free category on a random DAG: morphisms are edge paths, so the
    composition table is associative by construction."""

    def __init__(self, cat, edges, path_edges):
        self.cat = cat
        self.edges = edges  # (edge id, src, tgt)
        self.path_edges = path_edges  # morphism id -> tuple of edge ids


def rand_dag_category(rng, max_objects=4, max_edges=4):
    n = rng.randint(1, max_objects)
    objs = tuple(f"v{i}" for i in range(n))
    n_edges = rng.randint(0, max_edges) if n > 1 else 0
    edges = []
    for k in range(n_edges):
        i = rng.randint(0, n - 2)
        j = rng.randint(i + 1, n - 1)
        edges.append((f"e{k}", objs[i], objs[j]))
    # enumerate all paths by BFS over path length
    paths = {o: [((), o)] for o in objs}  # src -> [(edge tuple, tgt)]
    frontier = [(o, (), o) for o in objs]
    while frontier:
        nxt = []
        for src, path, at in frontier:
            for eid, es, et in edges:
                if es == at:
                    newp = path + (eid,)
                    paths[src].append((newp, et))
                    nxt.append((src, newp, et))
        frontier = nxt

    def pid(src, path):
        return f"id:{src}" if not path else "p:" + ".".join(path)

    morphisms, path_edges, endpoints = [], {}, {}
    for src in objs:
        for path, tgt in paths[src]:
            mid = pid(src, path)
            morphisms.append(Morphism(mid, src, tgt))
            path_edges[mid] = path
            endpoints[mid] = (src, tgt)
    compose = {}
    for m2 in morphisms:
        for m1 in morphisms:
            if m1.tgt == m2.src:
                compose.setdefault(m2.id, {})[m1.id] = pid(
                    m1.src, path_edges[m1.id] + path_edges[m2.id]
                )
    cat = FinCat(
        objs, tuple(morphisms), {o: f"id:{o}" for o in objs}, compose
    )
    return DagCategory(cat, edges, path_edges)


def rand_functor(rng, dom: DagCategory, cod: FinCat, tries=60):
    """A random functor out of a free category: pick object images, then a
    compatible image for each generating edge."""
    for _ in range(tries):
        omap = {o: rng.choice(cod.objects) for o in dom.cat.objects}
        edge_image = {}
        ok = True
        for eid, src, tgt in dom.edges:
            hom = cod.hom(omap[src], omap[tgt])
            if not hom:
                ok = False
                break
            edge_image[eid] = rng.choice(hom)
        if ok:
            break
    else:
        at = cod.objects[0]
        omap = {o: at for o in dom.cat.objects}
        edge_image = {eid: cod.identity[at] for eid, _, _ in dom.edges}
    mmap = {}
    for m in dom.cat.morphisms:
        img = cod.identity[omap[m.src]]
        for eid in dom.path_edges[m.id]:
            img = cod.compose[edge_image[eid]][img]
        mmap[m.id] = img
    return FunctorSpec(dom.cat, cod, omap, mmap)


def rand_presheaf(rng, base: DagCategory, max_elts=3, min_elts=0):
    """A random contravariant set-valued functor on a free category."""
    eltset = {}
    for o in base.cat.objects:
        k = rng.randint(min_elts, max_elts)
        eltset[o] = tuple(f"{o}x{i}" for i in range(k))
    # no function into an empty set: an empty source set empties the target
    changed = True
    while changed:
        changed = False
        for _, src, tgt in base.edges:
            if eltset[tgt] and not eltset[src]:
                eltset[tgt] = ()
                changed = True
    edge_action = {}
    for eid, src, tgt in base.edges:
        edge_action[eid] = {x: rng.choice(eltset[src]) for x in eltset[tgt]}
    action = {}
    for m in base.cat.morphisms:
        src, tgt = base.cat.src(m.id), base.cat.tgt(m.id)
        table = {}
        for x in eltset[tgt]:
            y = x
            for eid in reversed(base.path_edges[m.id]):
                y = edge_action[eid][y]
            table[x] = y
        action[m.id] = table
    return SetValuedFunctor(
        base=base.cat, variance=CONTRAVARIANT, eltset=eltset, action=action
    )


def rand_discrete_fibration(rng, max_objects=4, max_elts=3):
    base = rand_dag_category(rng, max_objects=max_objects)
    W = rand_presheaf(rng, base, max_elts=max_elts)
    return elements(W).projection


def rand_fibration_over_mcg(rng, n_objects=3, fibre_size=None):
    """A discrete fibration over mcg(n): constant fibre X with actions
    g_a . g_b^-1 for random permutations g_a."""
    base = mcg([f"m{i}" for i in range(n_objects)])
    k = fibre_size if fibre_size is not None else rng.randint(1, 4)
    X = [f"x{i}" for i in range(k)]
    perms = {}
    for a in base.objects:
        p = list(range(k))
        rng.shuffle(p)
        perms[a] = p
    eltset = {a: tuple(X) for a in base.objects}
    action = {}
    for m in base.morphisms:
        a, b = m.src, m.tgt
        inv_b = [0] * k
        for i, v in enumerate(perms[b]):
            inv_b[v] = i
        action[m.id] = {X[i]: X[perms[a][inv_b[i]]] for i in range(k)}
    W = SetValuedFunctor(base=base, variance=CONTRAVARIANT, eltset=eltset, action=action)
    return elements(W).projection, W


def rand_concrete_category(rng, max_objects=3, max_elements=3, max_generators=6, max_arrows=24):
    """The inclusion into sets of a category of functions, as a covariant
    presheaf on it: its base has up to max_objects sets of up to
    max_elements elements as objects, and as morphisms the functions
    generated by a few random ones, closed under composition.  A generator
    whose closure would exceed max_arrows morphisms, identities included,
    is left out.  The table composes functions, so it obeys the laws by
    construction, and it may have idempotents, loops and parallel arrows."""
    n = rng.randint(1, max_objects)
    objs = tuple(f"s{i}" for i in range(n))
    size = {o: rng.randint(0, max_elements) for o in objs}
    arrows = [(o, o, tuple(range(size[o]))) for o in objs]  # (src, tgt, function)
    for _ in range(rng.randint(1, max_generators)):
        a, b = rng.choice(objs), rng.choice(objs)
        if size[a] and not size[b]:
            continue  # no function into the empty set
        gen = (a, b, tuple(rng.randrange(size[b]) for _ in range(size[a])))
        arrows = _compose_closure(arrows, gen, max_arrows) or arrows
    mid = {x: f"id:{x[0]}" for x in arrows[:n]}
    mid.update((x, f"{x[0]}>{x[1]}:{''.join(map(str, x[2]))}") for x in arrows[n:])
    compose = {mid[g]: {mid[f]: mid[_then(f, g)] for f in arrows if f[1] == g[0]} for g in arrows}
    morphisms = tuple(Morphism(mid[x], x[0], x[1]) for x in arrows)
    base = FinCat(objs, morphisms, {o: f"id:{o}" for o in objs}, compose)
    return SetValuedFunctor(
        base=base,
        variance=COVARIANT,
        eltset={o: tuple(map(str, range(size[o]))) for o in objs},
        action={mid[x]: {str(i): str(j) for i, j in enumerate(x[2])} for x in arrows},
    )


def _then(f, g):
    """The arrow g . f of two composable function arrows."""
    return f[0], g[1], tuple(g[2][i] for i in f[2])


def _compose_closure(arrows, gen, cap):
    """arrows and gen closed under composition, or None once there are more
    than cap."""
    found, todo = list(arrows), [gen]
    while todo:
        x = todo.pop()
        if x in found:
            continue
        found.append(x)
        if len(found) > cap:
            return None
        todo += [_then(f, g) for y in found for g, f in ((x, y), (y, x)) if f[1] == g[0]]
    return found


# --- independent oracles --------------------------------------------------


def bfs_components(cat: FinCat):
    """Breadth-first-search connected components, independent of the
    union-find in the library."""
    adj = {o: set() for o in cat.objects}
    for m in cat.morphisms:
        adj[m.src].add(m.tgt)
        adj[m.tgt].add(m.src)
    seen, blocks = set(), []
    for o in cat.objects:
        if o in seen:
            continue
        blk, queue = [], deque([o])
        seen.add(o)
        while queue:
            cur = queue.popleft()
            blk.append(cur)
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        blocks.append(sorted(blk, key=cat.objects.index))
    return sorted(blocks, key=lambda blk: cat.objects.index(blk[0]))


def comma_under(F: FunctorSpec, d):
    """(F/d), built as the comma category of F and the point at d."""
    return comma(F, constant_functor(terminal_category(), F.cod, d))


def factor_fib_via_opposite(F: FunctorSpec):
    """The final / discrete fibration factorization of F built the long
    way: factor the opposite functor, then transport every piece back."""
    opf = comprehensive_factor_opfib(opposite_functor(F))
    s, p = opposite_functor(opf.s), opposite_functor(opf.p)
    return Factorization(s=s, p=p, variant="fibration")


def strict_pullback(F: FunctorSpec, G: FunctorSpec):
    """The full subcategory of comma(F, G) on its objects (a, b, id), with
    the projections restricted to it."""
    cm = comma(F, G)
    keep = {
        tuple_id(a, b, F.cod.identity[F.omap[a]])
        for a in F.dom.objects
        for b in G.dom.objects
        if F.omap[a] == G.omap[b]
    }
    c = cm.cat
    objects = tuple(o for o in c.objects if o in keep)
    morphisms = tuple(m for m in c.morphisms if m.src in keep and m.tgt in keep)
    kept_ids = {m.id for m in morphisms}
    sub = FinCat(
        objects=objects,
        morphisms=morphisms,
        identity={o: c.identity[o] for o in objects},
        compose={
            g: {f: h for f, h in row.items() if f in kept_ids}
            for g, row in c.compose.items()
            if g in kept_ids
        },
    )

    def restrict(P):
        omap = {o: P.omap[o] for o in sub.objects}
        return FunctorSpec(sub, P.cod, omap, {m.id: P.mmap[m.id] for m in sub.morphisms})

    return CommaResult(cat=sub, projA=restrict(cm.projA), projB=restrict(cm.projB))


def count_natural_transformations(V, W):
    """Brute force over all component-function tuples, filtered by
    naturality."""
    base = V.base
    per_object = []
    for c in base.objects:
        fns = list(iproduct(W.eltset[c], repeat=len(V.eltset[c])))
        per_object.append([dict(zip(V.eltset[c], vals)) for vals in fns])
    count = 0
    for combo in iproduct(*per_object):
        comp = dict(zip(base.objects, combo))
        natural = True
        for u in base.morphisms:
            for y in V.eltset[u.tgt]:
                if comp[u.src][V.action[u.id][y]] != W.action[u.id][comp[u.tgt][y]]:
                    natural = False
                    break
            if not natural:
                break
        if natural:
            count += 1
    return count


def count_fibration_morphisms(V, W):
    """Brute force over functors over the base between the two categories
    of elements."""
    ev, ew = elements(V), elements(W)
    base = V.base
    v_objs = list(ev.total.objects)
    choices = []
    for oid in v_objs:
        c = ev.projection.omap[oid]
        opts = [o for o in ew.total.objects if ew.projection.omap[o] == c]
        choices.append(opts)
    count = 0
    for combo in iproduct(*choices):
        omap = dict(zip(v_objs, combo))
        mmap = {}
        ok = True
        for m in ev.total.morphisms:
            u = ev.projection.mmap[m.id]
            lifts = [
                h.id
                for h in ew.total.morphisms
                if ew.projection.mmap[h.id] == u and h.tgt == omap[m.tgt]
            ]
            if len(lifts) != 1 or ew.total.src(lifts[0]) != omap[m.src]:
                ok = False
                break
            mmap[m.id] = lifts[0]
        if not ok:
            continue
        H = FunctorSpec(ev.total, ew.total, omap, mmap)
        if validate_functor(H).ok and is_fib_morphism(H, ev.projection, ew.projection).ok:
            count += 1
    return count


# --- all-morphisms scans, the oracles for the indexed lookups --------------


def scan_out_of(cat: FinCat, c):
    return [m for m in cat.morphisms if m.src == c]


def scan_into(cat: FinCat, c):
    return [m for m in cat.morphisms if m.tgt == c]


def scan_hom(cat: FinCat, a, b):
    return [m.id for m in cat.morphisms if m.src == a and m.tgt == b]


def scan_composable_pairs(cat: FinCat):
    return [(g.id, f.id) for g in cat.morphisms for f in cat.morphisms if f.tgt == g.src]


def scan_lifts(p: FunctorSpec, u, e):
    return [m.id for m in p.dom.morphisms if p.mmap[m.id] == u and m.tgt == e]


def scan_fibre(p: FunctorSpec, c):
    """The fibre members over c and the morphisms over its identity."""
    idc = p.cod.identity[c]
    return (
        tuple(e for e in p.dom.objects if p.omap[e] == c),
        tuple(m.id for m in p.dom.morphisms if p.mmap[m.id] == idc),
    )


def scan_fillers(p: FunctorSpec, f):
    """The fillers {(g, w): h} that make the domain morphism f cartesian
    over p(f), by scans over the morphism lists; None when some (g, w)
    has no filler or several."""
    E, C = p.dom, p.cod
    u = p.mmap[f.id]
    (u_src,) = (m.src for m in C.morphisms if m.id == u)
    fillers = {}
    for g in E.morphisms:
        if g.tgt != f.tgt:
            continue
        for w in C.morphisms:
            if (w.src, w.tgt) != (p.omap[g.src], u_src) or C.compose[u][w.id] != p.mmap[g.id]:
                continue
            hs = [
                h.id for h in E.morphisms
                if (h.src, h.tgt) == (g.src, f.src) and p.mmap[h.id] == w.id
                and E.compose[f.id][h.id] == g.id
            ]
            if len(hs) != 1:
                return None
            fillers[(g.id, w.id)] = hs[0]
    return fillers


def scan_cloven_fibration(p: FunctorSpec):
    """fib.is_fibration by scans over the morphism lists: (ok, violations,
    cleavage).  The lift of (e, u) is the first morphism over u into e, in
    declaration order, whose fillers are unique over every domain
    morphism into e."""
    violations, cleavage = [], {}
    for e in p.dom.objects:
        for u in p.cod.morphisms:
            if u.tgt != p.omap[e]:
                continue
            over = (f for f in p.dom.morphisms if f.tgt == e and p.mmap[f.id] == u.id)
            lift = next((f.id for f in over if scan_fillers(p, f) is not None), None)
            if lift is None:
                violations.append({"law": "cartesian-lift", "witness": (e, u.id)})
            else:
                cleavage[(e, u.id)] = lift
    return not violations, tuple(violations), cleavage


def scan_discrete_opfibration(p: FunctorSpec):
    """The unique-lift violations of fib.is_discrete_opfibration: for each
    total object e and base morphism u out of p(e), the number of domain
    morphisms over u with source e, where it is not 1."""
    violations = []
    for e in p.dom.objects:
        for u in p.cod.morphisms:
            if u.src != p.omap[e]:
                continue
            n = sum(1 for m in p.dom.morphisms if m.src == e and p.mmap[m.id] == u.id)
            if n != 1:
                violations.append({"law": "unique-lift", "witness": (e, u.id, n)})
    return tuple(violations)


def scan_comma(F: FunctorSpec, G: FunctorSpec):
    """fincat.comma by definition: the objects (a, b, f: Fa -> Gb) in (a, b,
    f) order, found by scanning the morphisms of the codomain; the morphisms
    (u, v) from (a, b, f) to (a', b', f2) with Gv . f = f2 . Fu in (u, v,
    source object, f2) order, found by scanning the objects; and each
    composite, identity and projection read off the parts."""
    C = F.cod
    objects = [
        (a, b, f.id)
        for a in F.dom.objects
        for b in G.dom.objects
        for f in C.morphisms
        if (f.src, f.tgt) == (F.omap[a], G.omap[b])
    ]
    parts = {}  # morphism id -> (u, v, f, f2)
    for u in F.dom.morphisms:
        for v in G.dom.morphisms:
            sources = [f for a, b, f in objects if (a, b) == (u.src, v.src)]
            targets = [f2 for a, b, f2 in objects if (a, b) == (u.tgt, v.tgt)]
            for f in sources:
                for f2 in targets:
                    if C.compose[G.mmap[v.id]][f] == C.compose[f2][F.mmap[u.id]]:
                        parts[tuple_id(u.id, v.id, f, f2)] = (u, v, f, f2)
    morphisms = tuple(
        Morphism(mid, tuple_id(u.src, v.src, f), tuple_id(u.tgt, v.tgt, f2))
        for mid, (u, v, f, f2) in parts.items()
    )
    leaving = {}  # source object -> the morphisms out of it
    for m in morphisms:
        leaving.setdefault(m.src, []).append(m.id)
    compose = {}
    for m in morphisms:
        u1, v1, f1, _ = parts[m.id]
        for g in leaving.get(m.tgt, ()):
            u2, v2, _, f3 = parts[g]
            u, v = F.dom.compose[u2.id][u1.id], G.dom.compose[v2.id][v1.id]
            compose.setdefault(g, {})[m.id] = tuple_id(u, v, f1, f3)
    identity = {
        tuple_id(a, b, f): tuple_id(F.dom.identity[a], G.dom.identity[b], f, f)
        for a, b, f in objects
    }
    cat = FinCat(tuple(tuple_id(*x) for x in objects), morphisms, identity, compose)

    def projection(i, D):
        omap = {tuple_id(*x): x[i] for x in objects}
        return FunctorSpec(cat, D, omap, {mid: x[i].id for mid, x in parts.items()})

    return CommaResult(cat=cat, projA=projection(0, F.dom), projB=projection(1, G.dom))


def scan_elements(W: SetValuedFunctor):
    """groth.elements as it was: it keeps each morphism's parts and fills the
    table over the total's composable pairs, found by scanning the morphism
    list, with the key of the outer (contra) or the inner (covariant)
    morphism."""
    contra = W.variance == CONTRAVARIANT
    base = W.base
    obj_id = {(c, x): tuple_id(c, x) for c in base.objects for x in W.eltset[c]}
    morphisms, mor_data, mor_id = [], {}, {}
    for f in base.morphisms:
        for key, val in W.action[f.id].items():
            src, tgt = (f.src, val), (f.tgt, key)
            if not contra:
                src, tgt = (f.src, key), (f.tgt, val)
            mid = tuple_id(f.id, key)
            morphisms.append(Morphism(mid, obj_id[src], obj_id[tgt]))
            mor_data[mid] = (f.id, key)
            mor_id[f.id, key] = mid
    identity = {oid: mor_id[base.identity[c], x] for (c, x), oid in obj_id.items()}
    total = FinCat(tuple(obj_id.values()), tuple(morphisms), identity, {})
    for g, f in scan_composable_pairs(total):
        f2, k2 = mor_data[g]
        f1, k1 = mor_data[f]
        total.compose.setdefault(g, {})[f] = mor_id[base.compose[f2][f1], k2 if contra else k1]
    omap = {oid: c for (c, _), oid in obj_id.items()}
    projection = FunctorSpec(total, base, omap, {mid: f for mid, (f, _) in mor_data.items()})
    return ElementsResult(total, projection, obj_id, mor_id)


def scan_check_category_wellformed(c: FinCat):
    """The reference checks of fincat.validate_category, by scans over the
    morphism list: raise MalformedSpec, with a path, at the first id that
    is repeated or does not resolve, checking the morphisms' ends, then the
    identities, then the table, then the repeats."""
    objects, ids = list(c.objects), [m.id for m in c.morphisms]
    for i, m in enumerate(c.morphisms):
        for end, at in ((m.src, "src"), (m.tgt, "tgt")):
            if end not in objects:
                raise MalformedSpec(f"morphisms[{i}].{at}", f"unknown object {end}")
    for obj, mid in c.identity.items():
        if obj not in objects:
            raise MalformedSpec(f"identity.{obj}", "unknown object")
        if mid not in ids:
            raise MalformedSpec(f"identity.{obj}", f"unknown morphism {mid}")
    for g, row in c.compose.items():
        if g not in ids:
            raise MalformedSpec(f"compose.{g}", "unknown morphism")
        for f, h in row.items():
            for x, what in ((f, "morphism"), (h, "composite")):
                if x not in ids:
                    raise MalformedSpec(f"compose.{g}.{f}", f"unknown {what}")
    distinct = ((ids, "morphisms[{}].id", "morphism"), (objects, "objects[{}]", "object"))
    for xs, path, what in distinct:
        for i, x in enumerate(xs):
            if x in xs[:i]:
                raise MalformedSpec(path.format(i), f"duplicate {what} id")


def scan_validate_category(c: FinCat, entries=None):
    """fincat.validate_category's violations, by its former full loops:
    every composable pair for totality and every composable triple for
    associativity, found by scans over the morphism list, with no index.
    A dangling or repeated id raises MalformedSpec as the library does.
    The entries (g, f, g.f) of the table are checked for composability and
    coherence in the order of entries, by default that of the rows."""
    scan_check_category_wellformed(c)
    if entries is None:
        entries = [(g, f, h) for g, row in c.compose.items() for f, h in row.items()]
    by_id = {m.id: m for m in c.morphisms}
    violations = []

    def flag(law, witness):
        violations.append({"law": law, "witness": witness})

    for obj in c.objects:
        mid = c.identity.get(obj)
        if mid is None:
            flag("identity-totality", (obj,))
        elif (by_id[mid].src, by_id[mid].tgt) != (obj, obj):
            flag("identity-endpoints", (obj, mid))
    for g in c.morphisms:
        for f in c.morphisms:
            if f.tgt == g.src and f.id not in c.compose.get(g.id, {}):
                flag("composition-totality", (g.id, f.id))
    for g, f, h in entries:
        if by_id[f].tgt != by_id[g].src:
            flag("composition-composability", (g, f))
        elif by_id[h].src != by_id[f].src or by_id[h].tgt != by_id[g].tgt:
            flag("endpoint-coherence", (g, f, h))
    def composite(g, f):
        return c.compose.get(g, {}).get(f)

    for m in c.morphisms:
        lid, rid = c.identity.get(m.tgt), c.identity.get(m.src)
        if rid is not None and composite(m.id, rid) not in (None, m.id):
            flag("right-unit", (m.id, rid))
        if lid is not None and composite(lid, m.id) not in (None, m.id):
            flag("left-unit", (lid, m.id))
    for h in c.morphisms:
        for g in (g for g in c.morphisms if g.tgt == h.src):
            for f in (f for f in c.morphisms if f.tgt == g.src):
                gf, hg = composite(g.id, f.id), composite(h.id, g.id)
                if gf is None or hg is None:
                    continue
                left, right = composite(h.id, gf), composite(hg, f.id)
                if left is not None and right is not None and left != right:
                    flag("associativity", (h.id, g.id, f.id))
    return tuple(violations)


def scan_validate_functor(F: FunctorSpec):
    """fincat.validate_functor's violations by its former full walk, which
    checks every entry of the domain's table, those with an identity in
    them too.  A missing or unknown image, or a key outside F.dom, raises
    MalformedSpec as the library does."""
    omap, mmap, cod = F.omap, F.mmap, F.cod
    for c in F.dom.objects:
        if c not in omap:
            raise MalformedSpec(f"omap.{c}", "missing object image")
        if omap[c] not in cod.objects:
            raise MalformedSpec(f"omap.{c}", f"unknown object {omap[c]}")
    by_id = {m.id: m for m in cod.morphisms}
    violations = []
    for m in F.dom.morphisms:
        if m.id not in mmap:
            raise MalformedSpec(f"mmap.{m.id}", "missing morphism image")
        img = by_id.get(mmap[m.id])
        if img is None:
            raise MalformedSpec(f"mmap.{m.id}", f"unknown morphism {mmap[m.id]}")
        if img.src != omap[m.src] or img.tgt != omap[m.tgt]:
            violations.append({"law": "endpoint-preservation", "witness": (m.id,)})
    for key in omap:
        if key not in F.dom.objects:
            raise MalformedSpec(f"omap.{key}", "unknown object")
    for key in mmap:
        if all(m.id != key for m in F.dom.morphisms):
            raise MalformedSpec(f"mmap.{key}", "unknown morphism")
    for c in F.dom.objects:
        if mmap[F.dom.identity[c]] != cod.identity[omap[c]]:
            violations.append({"law": "identity-preservation", "witness": (c,)})
    for g, row in F.dom.compose.items():
        for f, h in row.items():
            if cod.compose.get(mmap[g], {}).get(mmap[f]) != mmap[h]:
                violations.append({"law": "composition-preservation", "witness": (g, f)})
    return tuple(violations)


def scan_check_iso_over(H: FunctorSpec, Hinv: FunctorSpec, p: FunctorSpec, q: FunctorSpec):
    """fincat.check_iso_over by its former four comparisons, which compose
    both triangles over the base."""
    for F in (H, Hinv):
        if not validate_functor(F).ok:
            raise WitnessFailure("witness map is not a functor")
    if compose_functors(Hinv, H) != identity_functor(p.dom):
        raise WitnessFailure("H has no left inverse")
    if compose_functors(H, Hinv) != identity_functor(q.dom):
        raise WitnessFailure("H has no right inverse")
    if compose_functors(q, H) != p or compose_functors(p, Hinv) != q:
        raise WitnessFailure("triangle over the base fails")


def scan_validate_set_valued(W: SetValuedFunctor):
    """fincat.validate_set_valued's violations by its former full walk,
    which checks every entry of the base's table, those with an identity
    in them too.  A malformed presheaf raises MalformedSpec as the library
    does."""
    if W.variance not in (CONTRAVARIANT, COVARIANT):
        raise MalformedSpec("variance", "bad variance")
    for c, elts in W.eltset.items():
        if c not in W.base.objects:
            raise MalformedSpec(f"eltset.{c}", "unknown object")
        if len(set(elts)) != len(elts):
            raise MalformedSpec(f"eltset.{c}", "duplicate elements")
    for c in W.base.objects:
        if c not in W.eltset:
            raise MalformedSpec(f"eltset.{c}", "missing element set")
    ends = {m.id: (m.src, m.tgt) for m in W.base.morphisms}
    for mid in W.action:
        if mid not in ends:
            raise MalformedSpec(f"action.{mid}", "unknown morphism")
    contra, violations = W.variance == CONTRAVARIANT, []
    for m in W.base.morphisms:
        if m.id not in W.action:
            raise MalformedSpec(f"action.{m.id}", "missing action")
        table = W.action[m.id]
        a, b = (m.tgt, m.src) if contra else (m.src, m.tgt)
        if set(table) != set(W.eltset[a]) or not set(table.values()) <= set(W.eltset[b]):
            violations.append({"law": "action-endpoints", "witness": (m.id,)})
    if violations:
        return tuple(violations)
    for c in W.base.objects:
        table = W.action[W.base.identity[c]]
        if any(table.get(x) != x for x in W.eltset[c]):
            violations.append({"law": "identity-action", "witness": (c,)})
    for g, row in W.base.compose.items():
        for f, h in row.items():
            if ends[f][1] != ends[g][0]:
                continue
            first, then = (W.action[g], W.action[f]) if contra else (W.action[f], W.action[g])
            if {x: then[y] for x, y in first.items()} != W.action[h]:
                violations.append({"law": "composition-action", "witness": (g, f)})
    return tuple(violations)


def scan_is_plain_id(s):
    """fincat.is_plain_id by its former walk over every character of s."""
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
        elif ch == "|" and depth == 0:
            return False
    return depth == 0


# --- the loader's former category builder ----------------------------------

_ID_RULE = "brackets must nest and '|' may appear only inside them"


def _require(cond, path, message):
    if not cond:
        raise SchemaError(path, message)


def scan_build_category(name, doc, violations, filled):
    """cli._build_category as it was before the loader resolved each table
    entry once: every check in its old order, the unit composites filled by
    scan_complete_units and the laws checked by scan_validate_category.
    Returns the category, appends its law violations, prefixed by its place
    in the workspace, to violations and sets filled[name] to the pairs
    filled in; a defect raises SchemaError."""
    path = f"categories.{name}"
    _require(isinstance(doc, dict), path, "expected an object")
    _require("objects" in doc, path, "missing 'objects'")
    _require("morphisms" in doc, f"{path}.morphisms", "missing 'morphisms'")
    objects = doc["objects"]
    ok = isinstance(objects, list) and all(isinstance(v, str) for v in objects)
    _require(ok, f"{path}.objects", "expected a list of strings")
    for i, obj in enumerate(objects):
        _require(is_plain_id(obj), f"{path}.objects[{i}]", _ID_RULE)
    _require(isinstance(doc["morphisms"], list), f"{path}.morphisms", "expected a list")
    morphisms = []
    for i, rec in enumerate(doc["morphisms"]):
        mp = f"{path}.morphisms[{i}]"
        _require(isinstance(rec, dict), mp, "expected an object")
        for key in ("id", "src", "tgt"):
            _require(isinstance(rec.get(key), str), f"{mp}.{key}", "missing or non-string")
        _require(is_plain_id(rec["id"]), f"{mp}.id", _ID_RULE)
        morphisms.append(Morphism(rec["id"], rec["src"], rec["tgt"]))
    identity = doc.get("identity", {})
    ok = isinstance(identity, dict) and all(isinstance(v, str) for v in identity.values())
    _require(ok, f"{path}.identity", "expected an object of strings")
    identity, declared = dict(identity), {m.id for m in morphisms}
    for obj in objects:
        if obj not in identity:
            mid = f"id:{obj}"
            _require(mid not in declared, f"{path}.identity", f"{mid} already declared")
            morphisms.append(Morphism(mid, obj, obj))
            declared.add(mid)
            identity[obj] = mid
    cat = FinCat(tuple(objects), tuple(morphisms), identity, {})
    table = doc.get("compose", {})
    _require(isinstance(table, dict), f"{path}.compose", "expected an object")
    entries = []  # (g, f, g.f) in the order of the file
    for g, inner in table.items():
        _require(g in declared, f"{path}.compose.{g}", "unknown morphism")
        _require(isinstance(inner, dict), f"{path}.compose.{g}", "expected an object")
        for f, h in inner.items():
            _require(isinstance(h, str), f"{path}.compose.{g}.{f}", "unknown composite")
            cat.compose.setdefault(g, {})[f] = h
            entries.append((g, f, h))
    given = {(g, f) for g, f, _ in entries}
    missing = scan_complete_units(cat)
    # the file's entries come first, then the filled ones in pair order
    filled[name] = [
        (g.id, f.id)
        for g in cat.morphisms
        for f in cat.morphisms
        if f.tgt == g.src and (g.id, f.id) not in given and f.id in cat.compose.get(g.id, {})
    ]
    entries += [(g, f, cat.compose[g][f]) for g, f in filled[name]]
    try:
        found = scan_validate_category(cat, entries)
    except MalformedSpec as exc:
        raise SchemaError(f"{path}.{exc.path}", exc.message) from exc
    if missing is not None:
        message = "missing composite for ({}, {}) not forced by unit laws".format(*missing)
        raise SchemaError(f"{path}.compose", message)
    violations.extend({"law": f"{path}: {v['law']}", "witness": v["witness"]} for v in found)
    return cat


def built_category(build, doc):
    """What build (cli._build_category or scan_build_category) makes of a
    category document: the category's parts in insertion order, its
    prefixed law violations and the pairs filled in, or the path and
    message of its SchemaError."""
    violations, filled = [], {}
    try:
        c = build("C", copy.deepcopy(doc), violations, filled)
    except SchemaError as exc:
        return "schema", exc.path, exc.message
    parts = c.objects, c.morphisms, list(c.identity.items()), list(c.compose.items())
    return ("built", *parts, violations, filled["C"])


# --- pregroup oracles -------------------------------------------------------

_DELTAS = {"l": +1, "r": -1}  # one exponent delta per adjoint marker
_TOKEN = re.compile(r"([^\s.^]+)(?:\^([lr]+))?$")


def parse_type_by_deltas(text):
    """pregroup.parse_type read through a table of marker deltas."""
    simples = []
    col = 0
    for chunk in re.split(r"([.\s]+)", text):
        if not chunk or re.fullmatch(r"[.\s]+", chunk):
            col += len(chunk)
            continue
        m = _TOKEN.match(chunk)
        if m is None:
            raise TypeSyntaxError(f"bad simple type {chunk!r}", col)
        base, markers = m.group(1), m.group(2) or ""
        if "^" in base:
            raise TypeSyntaxError(f"bad simple type {chunk!r}", col)
        if base == "1":
            if markers:
                raise TypeSyntaxError("unit type takes no adjoint", col)
        else:
            simples.append(SimpleType(base, sum(_DELTAS[ch] for ch in markers)))
        col += len(chunk)
    return tuple(simples)


def scan_longest_match(lex, tokens, start):
    """Lexicon.longest_match by a scan over every entry."""
    best = None
    for phrase, ptype in lex.entries:
        k = len(phrase)
        if tuple(tokens[start : start + k]) == phrase:
            if best is None or k > len(best[0]):
                best = (phrase, ptype)
    return best


def in_convention(t, convention):
    """t with every exponent times the convention's d: the lambek rule on t
    is the paper rule on the result."""
    d = CONVENTIONS[convention]
    return tuple(SimpleType(st.base, d * st.exponent) for st in t)


def search_reduce(t, target):
    """pregroup.reduce in the paper convention by a backtracking search for
    a contraction sequence from t to target, leftmost contraction first.
    Returns a NoReduction value when the exhaustive search fails."""
    t, target = tuple(t), tuple(target)
    steps = _search(t, (), target, set())
    if steps is None:
        return NoReduction(start=t, target=target)
    return ReductionWitness(start=t, steps=steps, end=target)


def _search(cur, steps, target, seen):
    """steps extended by the contractions that take cur to target, leftmost
    first, or None.  seen holds the types visited so far; none is revisited."""
    if cur == target:
        return steps
    if len(cur) < len(target) or cur in seen:
        return None
    seen.add(cur)
    for i in range(len(cur) - 1):
        if cur[i].base == cur[i + 1].base and cur[i + 1].exponent == cur[i].exponent + 1:
            step = ReductionStep(
                position=i,
                cancelled_base=cur[i].base,
                cancelled_exponents=(cur[i].exponent, cur[i + 1].exponent),
            )
            found = _search(cur[:i] + cur[i + 2 :], steps + (step,), target, seen)
            if found is not None:
                return found
    return None


def scan_semantics(corpus, lex, target, convention="paper"):
    """pregroup.build_semantics as it was, materialized: each constituent's
    meaning set found by sliding each of its phrases over every sentence,
    each tensor's product listed with itertools.product, and each identity
    action a {x: x} table.  Its objects, morphisms, element ids and their
    order are the ones build_semantics gives."""
    sentences = {}  # tokens -> (sentence id, parse), once per distinct sentence
    for i, tokens in enumerate(corpus):
        tokens = tuple(tokens)
        if tokens not in sentences:
            result = parse_sentence(tokens, lex, target, convention)
            if isinstance(result, ParseFailure):
                raise UnparsedSentence(i, result, describe(result))
            sentences[tokens] = (" ".join(tokens), result)

    def constituent(phrase, ptype):
        return f"({' '.join(phrase)}, {format_type(ptype)})"

    def element(parts):
        return tuple_id(*parts) if len(parts) != 1 else parts[0]

    def contains(haystack, needle):
        n, k = len(haystack), len(needle)
        return any(tuple(haystack[i : i + k]) == needle for i in range(n - k + 1))

    eltset = {}
    parts = [
        tuple(constituent(ph, ty) for ph, ty in zip(r.segmentation, r.types))
        for _, r in sentences.values()
    ]
    shared = {cid for part_ids in parts if len(part_ids) > 1 for cid in part_ids}
    shapes = []
    for (sid, result), part_ids in zip(sentences.values(), parts):
        sent_obj = constituent((sid,), result.witness.end)
        if sent_obj in shared:
            sent_obj = tuple_id(sid, format_type(result.witness.end))
        shapes.append((sid, sent_obj, result.segmentation, part_ids, "⊗".join(part_ids)))
    for sid, sent_obj, _, _, _ in shapes:
        eltset.setdefault(sent_obj, (sid,))
    for _, _, phrases, part_ids, _ in shapes:
        for phrase, cid in zip(phrases, part_ids):
            if cid not in eltset:
                eltset[cid] = tuple(
                    sid for t, (sid, _) in sentences.items() if contains(t, phrase)
                )
    for _, _, _, part_ids, tid in shapes:
        if tid not in eltset:
            eltset[tid] = tuple(map(element, iproduct(*(eltset[p] for p in part_ids))))
    morphisms = [Morphism(f"id:{oid}", oid, oid) for oid in eltset]
    identity = {oid: f"id:{oid}" for oid in eltset}
    action = {identity[oid]: {x: x for x in elts} for oid, elts in eltset.items()}
    for sid, sent_obj, _, part_ids, tid in shapes:
        if tid != sent_obj:
            morphisms.append(Morphism(f"reduce:({sid})", tid, sent_obj))
            action[f"reduce:({sid})"] = {sid: element((sid,) * len(part_ids))}
    cat = FinCat(tuple(eltset), tuple(morphisms), identity, {})
    missing = scan_complete_units(cat)
    if missing is not None:
        g, f = missing
        raise ValueError(f"corpus induces a non-identity composite {g} . {f}; unsupported")
    return SetValuedFunctor(base=cat, variance=CONTRAVARIANT, eltset=eltset, action=action)


def scan_semantics_verdict(W: SetValuedFunctor):
    """The DISCRETE-FIBRATION verdict of ``fibcat semantics`` as it was
    computed: build the speaker's category of elements and check its
    projection for unique lifts."""
    return is_discrete_fibration(elements(W).projection).ok
