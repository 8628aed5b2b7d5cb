import collections
import os
import sys

import pytest

import fibcat.fincat
import fibcat.mcg
from fibcat.errors import MalformedSpec, NotDiscreteFibration, NotOverMCG
from fibcat.fib import fibre, is_discrete_fibration
from fibcat.fincat import (
    _ID_RULE,
    FinCat,
    FunctorSpec,
    compose_functors,
    identity_functor,
    validate_category,
)
from fibcat.mcg import (
    classify_over_mcg,
    is_mcg,
    mcg,
    mcg_on_function,
    product_with_mcg,
)

from helpers import chain_base, fig2_fibration, rand_fibration_over_mcg


class TestMcg:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_counts(self, n):
        g = mcg([f"m{i}" for i in range(n)])
        assert len(g.objects) == n
        assert len(g.morphisms) == n * n
        assert validate_category(g).ok

    def test_every_morphism_invertible(self):
        g = mcg("abc")
        for m in g.morphisms:
            back = f"({m.tgt}->{m.src})"
            assert g.composite(back, m.id) == g.identity[m.src]
            assert g.composite(m.id, back) == g.identity[m.tgt]

    def test_recognition(self):
        assert is_mcg(mcg("abcd"))
        assert is_mcg(mcg(""))
        assert not is_mcg(chain_base())  # no morphism B -> A

    def test_on_functions(self):
        F = mcg_on_function({"a": "x", "b": "x", "c": "y"}, "abc", "xy")
        from fibcat.fincat import validate_functor

        assert validate_functor(F).ok
        assert F.mmap["(a->b)"] == "(x->x)"
        assert F.mmap["(b->c)"] == "(x->y)"

    def test_omap_determines_mmap(self, rng):
        # between MCGs a functor is fixed by its object part
        for _ in range(20):
            A = [f"a{i}" for i in range(rng.randint(1, 4))]
            B = [f"b{i}" for i in range(rng.randint(1, 4))]
            fn = {a: rng.choice(B) for a in A}
            F = mcg_on_function(fn, A, B)
            for m in F.dom.morphisms:
                assert F.mmap[m.id] == f"({fn[m.src]}->{fn[m.tgt]})"

    @pytest.mark.parametrize(
        "names, path, message",
        [
            # "(a->b->c)" would name both a -> b->c and a->b -> c
            (["a", "b->c", "a->b", "c"], "objects[1]", "an object name may not contain '->'"),
            (["", "x"], "objects[0]", "empty object name"),  # else "(->)" and "(->x)"
            (["a", "(b"], "objects[1]", _ID_RULE),
            (["x|y", "a->b"], "objects[1]", "an object name may not contain '->'"),
            (["a", "x|y", ""], "objects[2]", "empty object name"),
            (["a", "(b", "a"], "objects[1]", _ID_RULE),
            (["a", "b", "a"], "objects", "duplicate object names"),
        ],
    )
    def test_names_that_make_arrow_ids_collide_are_refused(self, names, path, message):
        with pytest.raises(MalformedSpec) as exc:
            mcg(names)
        assert (exc.value.path, exc.value.message) == (path, message)
        with pytest.raises(MalformedSpec):
            mcg_on_function({a: "x" for a in names}, names, "x")


class TestProduct:
    def test_shape(self):
        cat, proj = product_with_mcg(("x0", "x1"), mcg("ab"))
        assert len(cat.objects) == 4
        assert len(cat.morphisms) == 8
        assert validate_category(cat).ok
        assert is_discrete_fibration(proj).ok

    def test_empty_fibre(self):
        cat, proj = product_with_mcg((), mcg("ab"))
        assert cat.objects == ()


class TestClassification:
    def test_product_projection_classifies_as_itself(self):
        _, proj = product_with_mcg(("x0", "x1"), mcg("ab"))
        cls = classify_over_mcg(proj)
        # the fibre set is the fibre over the least base object
        assert set(cls.fibre_set) == {"(x0|a)", "(x1|a)"}
        assert compose_functors(cls.inverse, cls.iso) == identity_functor(proj.dom)

    def test_random_fibrations(self, rng):
        for _ in range(50):
            p, _ = rand_fibration_over_mcg(rng, n_objects=3)
            cls = classify_over_mcg(p)
            # the classification self-verifies the two-sided inverse and
            # the triangle over the base; check the shape here
            assert len(cls.fibre_set) * 3 == len(p.dom.objects)
            assert compose_functors(cls.product_projection, cls.iso) == p

    def test_every_fibre_has_the_same_size(self, rng):
        # reindexing along an isomorphism is a bijection
        for _ in range(50):
            p, _ = rand_fibration_over_mcg(rng, n_objects=rng.randint(1, 4))
            assert len({len(fibre(p, a).elements) for a in p.cod.objects}) == 1

    def test_unequal_fibres_fail_the_discreteness_check(self, rng):
        # without one total object its fibre is smaller than the others, and
        # some morphism into another fibre loses its only lift
        for _ in range(30):
            p, _ = rand_fibration_over_mcg(rng, n_objects=rng.randint(2, 4))
            gone = rng.choice(p.dom.objects)
            E = p.dom
            morphisms = tuple(m for m in E.morphisms if gone not in (m.src, m.tgt))
            kept = {m.id for m in morphisms}
            sub = FinCat(
                tuple(e for e in E.objects if e != gone),
                morphisms,
                {e: i for e, i in E.identity.items() if e != gone},
                {
                    g: {f: h for f, h in row.items() if f in kept}
                    for g, row in E.compose.items()
                    if g in kept
                },
            )
            omap = {e: p.omap[e] for e in sub.objects}
            q = FunctorSpec(sub, p.cod, omap, {mid: p.mmap[mid] for mid in kept})
            assert len({len(fibre(q, a).elements) for a in q.cod.objects}) == 2
            assert validate_category(sub).ok and not is_discrete_fibration(q).ok
            with pytest.raises(NotDiscreteFibration):
                classify_over_mcg(q)

    def test_rejects_non_mcg_base(self):
        with pytest.raises(NotOverMCG):
            classify_over_mcg(fig2_fibration())

    def test_rejects_non_fibrations(self):
        from fibcat.fincat import Morphism

        # one object sitting over a, nothing over b: the connecting
        # morphisms have no lifts
        small = FinCat(
            ("e",), (Morphism("id:e", "e", "e"),), {"e": "id:e"},
            {"id:e": {"id:e": "id:e"}},
        )
        lop = FunctorSpec(small, mcg("ab"), {"e": "a"}, {"id:e": "(a->a)"})
        with pytest.raises(NotDiscreteFibration):
            classify_over_mcg(lop)

    def test_empty_base(self):
        empty = FinCat((), (), {}, {})
        p = FunctorSpec(empty, empty, {}, {})
        cls = classify_over_mcg(p)
        assert cls.fibre_set == ()
        assert compose_functors(cls.product_projection, cls.iso) == p


def test_classify_over_a_one_object_category_with_its_own_ids():
    from fibcat.fincat import terminal_category

    _, proj = product_with_mcg(("x0", "x1"), terminal_category())
    cls = classify_over_mcg(proj)
    assert cls.fibre_set == ("(x0|*)", "(x1|*)")
    assert cls.iso.omap["(x1|*)"] == "((x1|*)|*)"


def test_the_package_attribute_mcg_is_the_module():
    assert fibcat.mcg is sys.modules["fibcat.mcg"]
    assert fibcat.mcg.mcg is mcg


def test_classify_renders_each_product_id_once(fixtures_dir, monkeypatch):
    from fibcat import cli

    p = cli.load(os.path.join(fixtures_dir, "mcg_fibration.json")).functors["p"]
    rendered, tuple_id = [], fibcat.mcg.tuple_id
    def counted(*parts):
        rendered.append(parts)
        return tuple_id(*parts)

    monkeypatch.setattr(fibcat.mcg, "tuple_id", counted)
    product = classify_over_mcg(p).product_projection.dom
    assert len(rendered) == len(product.objects) + len(product.morphisms) > 0


def test_classify_composes_one_functor_and_reindexes_once_per_base_object(
    fixtures_dir, monkeypatch
):
    # check_iso_over computes the iso's inverse and composes one triangle,
    # the projection after the iso, with no identity functor to compare;
    # the iso transports each fibre once, along a0 -> a
    from fibcat import cli

    p = cli.load(os.path.join(fixtures_dir, "mcg_fibration.json")).functors["p"]
    calls = collections.Counter()
    names = ((fibcat.fincat, "compose_functors"), (fibcat.fincat, "identity_functor"),
             (fibcat.mcg, "_reindex"))
    for module, name in names:
        def counted(*args, name=name, real=getattr(module, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    classify_over_mcg(p)
    assert len(p.cod.objects) == 3
    assert calls == {"compose_functors": 1, "_reindex": 3}
