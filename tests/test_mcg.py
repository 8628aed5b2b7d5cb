import pytest

from fibcat.errors import NotOverMCG
from fibcat.fib import is_discrete_fibration
from fibcat.fincat import compose_functors, identity_functor, validate_category
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
            assert g.compose[(back, m.id)] == g.identity[m.src]
            assert g.compose[(m.id, back)] == g.identity[m.tgt]

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

    def test_rejects_non_mcg_base(self):
        with pytest.raises(NotOverMCG):
            classify_over_mcg(fig2_fibration())

    def test_rejects_non_fibrations(self):
        from fibcat.errors import NotDiscreteFibration
        from fibcat.fincat import FinCat, FunctorSpec, Morphism

        # one object sitting over a, nothing over b: the connecting
        # morphisms have no lifts
        small = FinCat(
            ("e",), (Morphism("id:e", "e", "e"),), {"e": "id:e"},
            {("id:e", "id:e"): "id:e"},
        )
        lop = FunctorSpec(small, mcg("ab"), {"e": "a"}, {"id:e": "(a->a)"})
        with pytest.raises(NotDiscreteFibration):
            classify_over_mcg(lop)

    def test_empty_base(self):
        from fibcat.fincat import FinCat, FunctorSpec

        empty = FinCat((), (), {}, {})
        p = FunctorSpec(empty, empty, {}, {})
        cls = classify_over_mcg(p)
        assert cls.fibre_set == ()


def test_classify_over_a_one_object_category_with_its_own_ids():
    from fibcat.fincat import terminal_category

    _, proj = product_with_mcg(("x0", "x1"), terminal_category())
    cls = classify_over_mcg(proj)
    assert cls.fibre_set == ("(x0|*)", "(x1|*)")
    assert cls.iso.omap["(x1|*)"] == "((x1|*)|*)"
