"""The three benchmark workloads: seeded workspace files, the ``fibcat``
commands run on them, and the known answer each command must print.

Every instance is drawn at a fixed size from ``random.Random`` seeded with
the workload seed, so a seed always gives the same files and every seed
gives the same amount of work.  Each workload mixes a small and a large
size: the small instances set the median command time and the large ones
the 90th percentile.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import cats
import grammar
from cats import Cat, Functor, pair, triple

# Sizes per workload and size class.  ``smoke`` is the tiny set the
# benchmark's own test runs.
SIZES = {
    "fibration": {
        "small": dict(instances=8, dag=(6, 8, 20, 7), fibre=4),
        "large": dict(instances=2, dag=(8, 12, 32, 15), fibre=6),
    },
    "factorization": {
        "small": dict(instances=3, dom=(20, 28, 90), cod=(6, 7, 28), comma=860, mcg=(6, 5)),
        "large": dict(instances=3, dom=(24, 34, 130), cod=(8, 10, 56), comma=2100, mcg=(8, 6)),
    },
    "grammar": {
        "small": dict(instances=2, accepted=(10, 20), rejected=(12, 14, 4), corpus=(4, 10, 300, 20)),
        "large": dict(instances=2, accepted=(30, 50), rejected=(16, 18, 4), corpus=(6, 10, 1000, 20)),
    },
}
SMOKE = {
    "fibration": {
        "small": dict(instances=1, dag=(3, 2, 6, None), fibre=2),
        "large": dict(instances=1, dag=(4, 4, 11, None), fibre=2),
    },
    "factorization": {
        "small": dict(instances=1, dom=(4, 4, 10), cod=(3, 2, 6), comma=20, mcg=(2, 2)),
        "large": dict(instances=1, dom=(5, 5, 14), cod=(3, 3, 7), comma=40, mcg=(3, 2)),
    },
    "grammar": {
        "small": dict(instances=1, accepted=(5, 6), rejected=(5, 6, 1), corpus=(2, 5, 13, 14)),
        "large": dict(instances=1, accepted=(8, 9), rejected=(7, 8, 1), corpus=(2, 6, 17, 14)),
    },
}
WORKLOADS = tuple(SIZES)
COMMA_CANDIDATES = 8


@dataclass
class Command:
    kind: str  # the command and its target, e.g. "check-fib --discrete q"
    size: str  # "small" | "large"
    argv: list
    check: Callable  # (exit code, output lines) -> None if right, else why not


def expect(code, lines):
    """Check for an exact known output."""
    lines = list(lines)

    def check(got, out):
        if got != code:
            return f"exit {got}, expected {code}"
        if out != lines:
            i = next((i for i, (a, b) in enumerate(zip(out, lines)) if a != b), min(len(out), len(lines)))
            got_line = out[i] if i < len(out) else "<end>"
            want = lines[i] if i < len(lines) else "<end>"
            return f"line {i}: got {got_line!r}, expected {want!r}"
        return None

    return check


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, ensure_ascii=False)


# --- fibration ---------------------------------------------------------------


def fibration(rng, path, size, instance, dag, fibre):
    """A presheaf W on a free DAG category D, its category of elements E
    with projection p, and q: a copy of p with one more total object over a
    base object b that has incoming morphisms.  That object has no lifts, so
    q is a known non-fibration."""
    D, path_edges = cats.free_dag(rng, *dag, prefix="c")
    X = {c: [f"{c}x{i}" for i in range(fibre)] for c in D.objects}
    edge_act = {path[0]: {y: rng.choice(X[D.src(m)]) for y in X[D.tgt(m)]}
                for m, path in path_edges.items() if len(path) == 1}
    # contravariant: along the path e1 then e2, W(e2 . e1) = W(e1) . W(e2)
    act = cats.extend(D, path_edges, edge_act, lambda c: {x: x for x in X[c]},
                      lambda acc, table: {y: acc[x] for y, x in table.items()})
    E, p = cats.elements(D, X, act)
    b = rng.choice(sorted({D.tgt(u) for u in D.non_identity()}, key=D.objects.index))
    extra = pair(b, "extra")
    Eq = Cat(E.objects + [extra], [(m, E.src(m), E.tgt(m)) for m in E.non_identity()],
             {o: f"id:{o}" for o in E.objects + [extra]}, E.comp)
    into_b = [u for u in D.non_identity() if D.tgt(u) == b]
    u_star = rng.choice(D.non_identity())
    _write(path, {
        "format": 1,
        "categories": {"D": D.to_doc(), "E": E.to_doc(), "Eq": Eq.to_doc()},
        "functors": {"p": p.to_doc("E", "D"), "q": Functor(Eq, D, p.omap | {extra: b}, p.mmap).to_doc("Eq", "D")},
        "presheaves": {"W": {"base": "D", "variance": "contravariant", "eltset": X, "action": act}},
    })

    def reindexed(u):
        return [(pair(D.tgt(u), y), pair(D.src(u), act[u][y])) for y in X[D.tgt(u)]]

    fibre_lines = [f"{c}: " + " ".join(pair(c, x) for x in X[c]) for c in D.objects]
    lifts = [f"LIFT: ({pair(c, y)}, {u}) -> {'id:' + pair(c, y) if u in D.identities else pair(u, y)}"
             for c in D.objects for y in X[c] for u in D.morphisms if D.tgt(u) == c]
    ok_roundtrip = expect(0, ["CHECKED: true"])
    cmds = [
        ("validate", ["validate", path], expect(0, ["OK: workspace valid (3 categories)"])),
        ("fibres", ["fibres", path, "p"], expect(0, fibre_lines)),
        ("reindex", ["reindex", path, "p", u_star], expect(0, [f"{x} -> {y}" for x, y in reindexed(u_star)])),
        ("elements", ["elements", path, "W"], expect(0, [f"OBJECT: {o}" for o in E.objects] + [
            f"MORPHISM: {m} : {E.src(m)} -> {E.tgt(m)}" for m in E.non_identity()])),
        ("check-fib --discrete p", ["check-fib", "--discrete", path, "p"], expect(0, ["OK: discrete fibration"])),
        ("check-fib --discrete q", ["check-fib", "--discrete", path, "q"], expect(1, [
            "FAIL: not a discrete fibration"] + [f"VIOLATION: unique-lift {(extra, u, 0)!r}" for u in into_b])),
        ("check-fib --cloven p", ["check-fib", "--cloven", path, "p"], expect(0, ["OK: cloven fibration"] + lifts)),
        ("check-fib --cloven q", ["check-fib", "--cloven", path, "q"], expect(1, [
            "FAIL: not a fibration"] + [f"VIOLATION: cartesian-lift {(extra, u)!r}" for u in into_b])),
        ("straighten", ["straighten", path, "p"], expect(0, fibre_lines + [
            f"{u}: {{" + ", ".join(f"{x}->{y}" for x, y in reindexed(u)) + "}" for u in D.non_identity()])),
        ("roundtrip W", ["roundtrip", path, "W"], ok_roundtrip),
        ("roundtrip p", ["roundtrip", path, "p"], ok_roundtrip),
    ]
    return [Command(kind, size, argv, check) for kind, argv, check in cmds]


# --- factorization -----------------------------------------------------------


def _spread_functor(rng, A, path_edges, B):
    """A functor from a free DAG category to a chain-bearing one: object i
    of A goes to object i * |B| / |A| of B, so F is monotone, never constant,
    and every edge has an image path; edge images are seeded choices."""
    omap = {a: B.objects[i * len(B.objects) // len(A.objects)] for i, a in enumerate(A.objects)}
    edge_img = {}
    for mid, path in path_edges.items():
        if len(path) == 1:
            s, t = omap[A.src(mid)], omap[A.tgt(mid)]
            edge_img[path[0]] = B.ident[s] if s == t else rng.choice(B.hom(s, t))
    mmap = cats.extend(A, path_edges, edge_img, lambda a: B.ident[omap[a]], lambda acc, g: B.compose(g, acc))
    return Functor(A, B, omap, mmap)


def _mcg_fibration(rng, n, k):
    """A discrete fibration over mcg(n) with constant fibre x0..x{k-1}:
    W(a->b) = g_a . g_b^-1 for seeded permutations g."""
    G = cats.mcg(n)
    X = [f"x{i}" for i in range(k)]
    perm = {a: rng.sample(X, k) for a in G.objects}  # g_a : x_i -> perm[a][i]
    pos = {a: {x: i for i, x in enumerate(perm[a])} for a in G.objects}
    act = {u: {y: perm[G.src(u)][pos[G.tgt(u)][y]] for y in X} for u in G.non_identity()}
    T, pm = cats.elements(G, {a: X for a in G.objects}, act)
    return G, X, act, T, pm


def _connected_lines(kind, F: Functor):
    bad = [(d, n) for d in F.cod.objects if (n := len(cats.components(F, d)[0])) != 1]
    if not bad:
        return expect(0, [f"OK: {kind} functor"])
    return expect(1, [f"FAIL: not {kind}"] + [f"VIOLATION: comma-connected {w!r}" for w in bad])


def factorization(rng, path, size, instance, dom, cod, comma, mcg):
    """A non-constant functor F between free DAG categories, both factors s
    of its comprehensive factorizations, and a discrete fibration over
    mcg(n) with a constant fibre of size k.  Of ``COMMA_CANDIDATES`` seeded
    draws of A and F, the one whose comma category (F/id) has closest to
    ``comma`` morphisms is kept, since that size sets the cost of most
    commands here."""
    B, _paths = cats.free_dag(rng, *cod, prefix="b", chain=True)
    best = None
    for _ in range(COMMA_CANDIDATES):
        A, a_paths = cats.free_dag(rng, *dom, prefix="a")
        F = _spread_functor(rng, A, a_paths, B)
        objects, morphisms = cats.comma_with_identity(F)
        gap = abs(len(morphisms) - comma)
        if best is None or gap < best[0]:
            best = (gap, A, F, objects, morphisms)
    _, A, F, objects, morphisms = best
    mid_op, s_op = cats.factorize(F)
    mid_fib_op, s_fib_op = cats.factorize(F.op())
    mid_fib = mid_fib_op.op()
    s_fib = Functor(A, mid_fib, s_fib_op.omap, s_fib_op.mmap)
    G, X, act, T, pm = _mcg_fibration(rng, *mcg)
    mcg_path = path.replace(".json", "-mcg.json")
    _write(path, {
        "format": 1,
        "categories": {"A": A.to_doc(), "B": B.to_doc(), "Mop": mid_op.to_doc(), "Mfib": mid_fib.to_doc()},
        "functors": {
            "F": F.to_doc("A", "B"),
            "idB": cats.identity_functor(B).to_doc("B", "B"),
            "s_op": s_op.to_doc("A", "Mop"),
            "s_fib": s_fib.to_doc("A", "Mfib"),
        },
    })
    _write(mcg_path, {
        "format": 1,
        "categories": {"G": G.to_doc(), "T": T.to_doc()},
        "functors": {"p": pm.to_doc("T", "G")},
    })

    def factor_lines(variant, mid, s):
        return [f"VARIANT: {variant}", "MID-OBJECTS: " + " ".join(mid.objects)] + [
            f"S: {a} -> {s.omap[a]}" for a in A.objects]

    kept = {o for o in objects if o[2] in B.identities}
    a0 = G.objects[0]
    # the transport of (a|y) to the fibre over a0, along the lift of (a0->a)
    transport = {pair(a, y): pair(a0, y if a == a0 else act[f"({a0}->{a})"][y]) for a in G.objects for y in X}

    cmds = [
        ("factorize --opfib", ["factorize", "--opfib", path, "F"], expect(0, factor_lines("opfibration", mid_op, s_op))),
        ("factorize --fib", ["factorize", "--fib", path, "F"], expect(0, factor_lines("fibration", mid_fib, s_fib))),
        ("check-initial s_op", ["check-initial", path, "s_op"], expect(0, ["OK: initial functor"])),
        ("check-final s_fib", ["check-final", path, "s_fib"], expect(0, ["OK: final functor"])),
        ("check-initial F", ["check-initial", path, "F"], _connected_lines("initial", F)),
        ("check-final F", ["check-final", path, "F"], _connected_lines("final", F.op())),
        ("comma", ["comma", path, "F", "idB"], expect(0, [f"OBJECT: {triple(*o)}" for o in objects] + [
            f"MORPHISM: {m} : {triple(*s)} -> {triple(*t)}" for m, s, t in morphisms])),
        ("pullback", ["pullback", path, "F", "idB"], expect(0, [
            f"OBJECT: {triple(*o)}" for o in objects if o in kept] + [
            f"MORPHISM: {m} : {triple(*s)} -> {triple(*t)}" for m, s, t in morphisms if s in kept and t in kept])),
        ("classify-mcg", ["classify-mcg", mcg_path, "p"], expect(0, [
            "FIBRE-SET: " + " ".join(pair(a0, x) for x in X)] + [
            f"H: {e} -> {pair(transport[e], pm.omap[e])}" for e in T.objects])),
    ]
    return [Command(kind, size, argv, check) for kind, argv, check in cmds]


# --- grammar -----------------------------------------------------------------


def grammar_instance(rng, path, size, instance, accepted, rejected, corpus):
    """A seeded lexicon, a grammatical sentence of every length in
    ``accepted``, ``rejected[2]`` invariant-breaking sentences of every
    length from ``rejected[0]`` to ``rejected[1]``, and a corpus for the toy
    semantics.

    A rejection runs the search to exhaustion, and its cost depends on the
    sentence's type string alone, by a factor of 30 between strings of one
    length.  So the type strings of the rejected sentences come from a
    generator that does not depend on the seed, and the seed picks their
    words; every seed then asks for the same search work."""
    lex = grammar.Lexicon(rng)
    good = [grammar.sentence(rng, lex, n) for n in range(accepted[0], accepted[1] + 1)]
    bad = [grammar.reword(rng, lex, grammar.ungrammatical(random.Random(f"shape:{size}:{instance}:{n}:{j}"), lex, n))
           for n in range(rejected[0], rejected[1] + 1) for j in range(rejected[2])]
    for segs in good:
        grammar.check_invariant(segs, True)
    for segs in bad:
        grammar.check_invariant(segs, False)
    sents = grammar.corpus(rng, lex, *corpus)
    _write(path, {
        "format": 1,
        "lexicons": {"lex": lex.to_doc()},
        "corpora": {"corpus": [" ".join(grammar.tokens(s)) for s in sents]},
    })
    parse = ["parse", "--lexicon", path, "--target", "s", "--convention", "lambek"]
    cmds = [Command("parse accepted", size, parse + [" ".join(grammar.tokens(s))], grammar.check_accepted(s))
            for s in good]
    cmds += [Command("parse rejected", size, parse + [" ".join(grammar.tokens(s))], grammar.check_rejected)
             for s in bad]
    cmds.append(Command(
        "semantics", size,
        ["semantics", path, "--lexicon", "lex", "--corpus", "corpus", "--target", "s", "--convention", "lambek"],
        expect(0, [f"FIBRE-SIZE: {oid} = {n}" for oid, n in grammar.semantics_sizes(sents)]
               + ["DISCRETE-FIBRATION: true"])))
    return cmds


BUILDERS = {"fibration": fibration, "factorization": factorization, "grammar": grammar_instance}


def build(workload, seed, workdir, smoke=False):
    """Generate and write every instance of a workload; return one pass of
    commands over them, in a seeded order."""
    sizes = (SMOKE if smoke else SIZES)[workload]
    commands = []
    for size, params in sizes.items():
        params = dict(params)
        for i in range(params.pop("instances")):
            rng = random.Random(f"{workload}:{seed}:{size}:{i}")
            path = os.path.join(workdir, f"{workload}-{size}-{i}.json")
            commands += BUILDERS[workload](rng, path, size, i, **params)
    random.Random(f"{workload}:{seed}:order").shuffle(commands)
    return commands
