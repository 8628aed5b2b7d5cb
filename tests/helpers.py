"""Shared fixtures, random generators, and independent oracles."""

from collections import deque
from itertools import product as iproduct

from fibcat.fincat import (
    CONTRAVARIANT,
    FinCat,
    FunctorSpec,
    Morphism,
    SetValuedFunctor,
)
from fibcat.groth import elements
from fibcat.fib import is_fib_morphism
from fibcat.fincat import validate_functor
from fibcat.mcg import mcg


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
    compose = {("g", "f"): "gf"}
    cat = FinCat(("A", "B", "C"), morphisms, {o: f"id:{o}" for o in "ABC"}, compose)
    _complete_units(cat)
    return cat


def _complete_units(cat):
    """Fill in unit composites in place (helper for hand-built fixtures)."""
    identities = set(cat.identity.values())
    for g in cat.morphisms:
        for f in cat.morphisms:
            if f.tgt != g.src or (g.id, f.id) in cat.compose:
                continue
            if f.id in identities:
                cat.compose[(g.id, f.id)] = g.id
            elif g.id in identities:
                cat.compose[(g.id, f.id)] = f.id


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
    compose = {("g:C0", "f:B2"): "gf:C0", ("g:C1", "f:B0"): "gf:C1"}
    cat = FinCat(objects, tuple(morphisms), {o: f"id:{o}" for o in objects}, compose)
    _complete_units(cat)
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
    _complete_units(base)
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
    _complete_units(total)
    return FunctorSpec(
        total,
        base,
        {"e1": "x", "e2": "x", "e0": "y"},
        {"a": "u", "b": "u", "id:e1": "id:x", "id:e2": "id:x", "id:e0": "id:y"},
    )


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
                compose[(m2.id, m1.id)] = pid(
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
            img = cod.compose[(edge_image[eid], img)]
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
