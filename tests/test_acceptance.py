"""End-to-end acceptance checks, one test per criterion.

Each test emits a single PASS/FAIL line outside the capture window so the
run log shows the verdicts at a glance.
"""

import os
import random

import pytest

from fibcat import cli
from fibcat.errors import SchemaError, ValidationError, WitnessFailure
from fibcat.factor import (
    comprehensive_factor_fib,
    comprehensive_factor_opfib,
)
from fibcat.fib import fibre, is_discrete_fibration, is_fibration, is_opfibration, reindex
from fibcat.fincat import comma
from fibcat.groth import elements, roundtrip_fibration, roundtrip_presheaf
from fibcat.mcg import classify_over_mcg, mcg
from fibcat.pregroup import (
    NoReduction,
    ParseFailure,
    build_semantics,
    make_lexicon,
    parse_sentence,
    parse_type,
)

from conftest import FIXTURES, SEED
from helpers import (
    bfs_components,
    comma_under as _comma_with_point,
    count_fibration_morphisms,
    count_natural_transformations,
    fig2_fibration,
    rand_dag_category,
    rand_fibration_over_mcg,
    rand_functor,
    rand_presheaf,
)


def _verdict(capsys, label, ok):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'}: {label}", flush=True)
    assert ok, label


def test_criterion_1_reindexing_tables(capsys):
    p = fig2_fibration()
    ok = (
        fibre(p, "A").elements == ("A0", "A1", "A2")
        and fibre(p, "B").elements == ("B0", "B1", "B2")
        and fibre(p, "C").elements == ("C0", "C1")
        and reindex(p, "f").table == {"B0": "A0", "B1": "A2", "B2": "A2"}
        and reindex(p, "g").table == {"C0": "B2", "C1": "B0"}
        and reindex(p, "gf").table == {"C0": "A2", "C1": "A0"}
    )
    _verdict(capsys, "fibres and reindexing tables of the pictured fibration", ok)


def test_criterion_2_roundtrips(capsys):
    rng = random.Random(SEED)
    try:
        for _ in range(100):
            base = rand_dag_category(rng, 5, 4)
            W = rand_presheaf(rng, base, max_elts=4)
            roundtrip_presheaf(W)
            roundtrip_fibration(elements(W).projection)
        ok = True
    except WitnessFailure:
        ok = False
    _verdict(capsys, "100 random presheaves survive both roundtrips", ok)


def test_criterion_3_full_faithfulness_counts(capsys):
    rng = random.Random(SEED)
    ok = True
    for _ in range(25):
        base = rand_dag_category(rng, 3, 2)
        V = rand_presheaf(rng, base, max_elts=2, min_elts=1)
        W = rand_presheaf(rng, base, max_elts=2, min_elts=1)
        ok = ok and count_natural_transformations(V, W) == count_fibration_morphisms(
            V, W
        )
    _verdict(capsys, "transformation counts equal fibration-morphism counts (25 pairs)", ok)


def test_criterion_4_comprehensive_factorizations(capsys):
    rng = random.Random(SEED)
    ok = True
    for _ in range(200):
        C = rand_dag_category(rng, 3, 2)
        D = rand_dag_category(rng, 3, 3)
        F = rand_functor(rng, C, D.cat)
        # construction self-verifies p . s = F, the (op)fibration property,
        # and initiality/finality; cross-check fibre sizes against BFS
        fac = comprehensive_factor_opfib(F)
        comprehensive_factor_fib(F)
        for d in D.cat.objects:
            cm = _comma_with_point(F, d)
            if len(fibre(fac.p, d).elements) != len(bfs_components(cm.cat)):
                ok = False
    _verdict(capsys, "200 comprehensive factorizations verified both ways", ok)


def test_criterion_5_comma_squares(capsys):
    rng = random.Random(SEED)
    ok = True
    for _ in range(100):
        C = rand_dag_category(rng, 3, 3)
        F = rand_functor(rng, rand_dag_category(rng, 3, 2), C.cat)
        G = rand_functor(rng, rand_dag_category(rng, 3, 2), C.cat)
        cm = comma(F, G)
        ok = ok and is_fibration(cm.projA).ok
        ok = ok and is_opfibration(cm.projB).ok
    _verdict(capsys, "100 comma squares: left leg fibration, right leg opfibration", ok)


def test_criterion_6_mcg_classification(capsys):
    rng = random.Random(SEED)
    ok = True
    for n in (1, 2, 3, 4):
        g = mcg([f"m{i}" for i in range(n)])
        ok = ok and len(g.objects) == n and len(g.morphisms) == n * n
    for _ in range(50):
        p, _ = rand_fibration_over_mcg(rng, n_objects=3)
        cls = classify_over_mcg(p)  # self-verifies the isomorphism triangle
        ok = ok and len(cls.fibre_set) * 3 == len(p.dom.objects)
    _verdict(capsys, "MCG sizes and 50 classifications over a 3-object groupoid", ok)


def test_criterion_7_pregroup_parses(capsys):
    lex = make_lexicon([("the cat", "n"), ("sleeps", "n^l.s"), ("is fat", "n^l.s")])
    target = parse_type("s")
    good = parse_sentence(["the", "cat", "sleeps"], lex, target)
    bad = parse_sentence(["sleeps", "the", "cat"], lex, target)
    ok = (
        not isinstance(good, ParseFailure)
        and len(good.witness.steps) == 1
        and good.witness.steps[0].cancelled_base == "n"
        and isinstance(bad, ParseFailure)
        and bad.kind == "no-reduction"
        and isinstance(bad.detail, NoReduction)
    )
    _verdict(capsys, "pregroup accepts the grammatical order and refuses the scramble", ok)


def test_criterion_8_toy_semantics(capsys):
    lex = make_lexicon([("the cat", "n"), ("sleeps", "n^l.s"), ("is fat", "n^l.s")])
    corpus = [["the", "cat", "sleeps"], ["the", "cat", "is", "fat"]]
    W = build_semantics(corpus, lex, parse_type("s"))
    tensor = "(the cat, n)⊗(sleeps, n^l.s)"
    sizes_ok = (
        len(W.eltset["(the cat sleeps, s)"]) == 1
        and len(W.eltset["(the cat is fat, s)"]) == 1
        and len(W.eltset["(the cat, n)"]) == 2
        and len(W.eltset["(sleeps, n^l.s)"]) == 1
        and len(W.eltset[tensor]) == 2
    )
    # tensor meaning is the product of the factor meanings, and the
    # reduction acts by the diagonal
    product_ok = set(W.eltset[tensor]) == {
        f"({s}|the cat sleeps)" for s in ("the cat sleeps", "the cat is fat")
    }
    diagonal_ok = W.action["reduce:(the cat sleeps)"] == {
        "the cat sleeps": "(the cat sleeps|the cat sleeps)"
    }
    fib_ok = is_discrete_fibration(elements(W).projection).ok
    _verdict(
        capsys,
        "toy semantics: meaning sizes, product tensors, diagonal reduction",
        sizes_ok and product_ok and diagonal_ok and fib_ok,
    )


def test_criterion_9_validator_soundness(capsys):
    ok = True
    # the positive fixtures load cleanly
    for name in ("fig2.json", "span.json"):
        cli.load(os.path.join(FIXTURES, name))
    neg = os.path.join(FIXTURES, "negative")
    with pytest.raises(ValidationError) as exc:
        cli.load(os.path.join(neg, "broken_assoc.json"))
    ok = ok and any("associativity" in v["law"] for v in exc.value.report.violations)
    with pytest.raises(SchemaError) as exc2:
        cli.load(os.path.join(neg, "missing_mmap.json"))
    ok = ok and exc2.value.path == "functors.p.mmap.f:B1"
    ws = cli.load(os.path.join(neg, "missing_lift.json"))
    report = is_discrete_fibration(ws.functors["p"])
    ok = ok and {"law": "unique-lift", "witness": ("C0", "g", 0)} in report.violations
    _verdict(capsys, "validators reject each broken fixture with the right class", ok)
