from dataclasses import replace

import pytest

from fibcat import factor
from fibcat.errors import WitnessFailure
from fibcat.factor import (
    comprehensive_factor_fib,
    comprehensive_factor_opfib,
    is_final,
    is_initial,
    pi0_functor,
)
from fibcat.fib import fibre
from fibcat.fincat import (
    FinCat,
    FunctorSpec,
    Morphism,
    comma,
    compose_functors,
    connected_components,
    constant_functor,
    identity_functor,
    terminal_category,
    tuple_id,
    validate_set_valued,
)
from fibcat.mcg import mcg

from helpers import (
    scan_complete_units,
    bfs_components,
    chain_base,
    comma_under,
    factor_fib_via_opposite,
    rand_dag_category,
    rand_functor,
)


def pi0_read_off_each_comma(F):
    """The eltset and action of pi0_functor(F), from the components of
    (F/d) built as a comma category for each d."""
    D = F.cod
    eltset, block = {}, {}
    for d in D.objects:
        cat = comma_under(F, d).cat
        blocks = connected_components(cat.objects, [(m.src, m.tgt) for m in cat.morphisms])
        eltset[d] = tuple(blk[0] for blk in blocks)
        block.update((oid, blk[0]) for blk in blocks for oid in blk)
    action = {
        g.id: {
            block[tuple_id(c, "*", f)]: block[tuple_id(c, "*", D.compose[g.id][f])]
            for c in F.dom.objects
            for f in D.hom(F.omap[c], g.src)
        }
        for g in D.morphisms
    }
    return eltset, action


def category(objects, arrows, composites=()):
    """The morphisms (id, src, tgt) in this order, the identities "id:<o>"
    among them, with the composites (g, f, g.f) and the unit composites."""
    cat = FinCat(
        objects,
        [Morphism(*a) for a in arrows],
        {o: f"id:{o}" for o in objects},
        {},
    )
    for g, f, h in composites:
        cat.compose.setdefault(g, {})[f] = h
    scan_complete_units(cat)
    return cat


class TestPi0Functor:
    def test_identity_on_the_chain(self):
        # each comma over the chain is connected: one block per object
        K = pi0_functor(identity_functor(chain_base()))
        assert all(len(K.eltset[d]) == 1 for d in "ABC")
        assert validate_set_valued(K).ok

    def test_point_into_the_arrow(self):
        from helpers import span_non_fibration

        arrow = span_non_fibration().cod  # x -> y
        point = terminal_category()
        at_y = constant_functor(point, arrow, "y")
        K = pi0_functor(at_y)
        # nothing maps into x, one block over y
        assert K.eltset["x"] == ()
        assert len(K.eltset["y"]) == 1

    def test_block_counts_match_the_bfs_oracle(self, rng):
        from helpers import comma_under as _comma_with_point

        for _ in range(40):
            C = rand_dag_category(rng, 3, 2)
            D = rand_dag_category(rng, 3, 3)
            F = rand_functor(rng, C, D.cat)
            K = pi0_functor(F)
            assert validate_set_valued(K).ok
            for d in D.cat.objects:
                cm = _comma_with_point(F, d)
                assert len(K.eltset[d]) == len(bfs_components(cm.cat))

    def test_block_map_matches_the_components_of_each_comma(self, rng):
        for _ in range(100):
            C = rand_dag_category(rng, 3, 2)
            D = rand_dag_category(rng, 3, 3)
            F = rand_functor(rng, C, D.cat)
            K = pi0_functor(F)
            assert (K.eltset, K.action) == pi0_read_off_each_comma(F)

    def test_block_map_over_parallel_arrows(self):
        two = category(
            "ab", [("u", "a", "b"), ("w", "a", "b"), ("id:a", "a", "a"), ("id:b", "b", "b")]
        )
        at_a = FunctorSpec(terminal_category(), two, {"*": "a"}, {"id:*": "id:a"})
        for F in (at_a, identity_functor(two)):
            K = pi0_functor(F)
            assert (K.eltset, K.action) == pi0_read_off_each_comma(F)
        # u and w are different objects of (at_a/b), and nothing joins them
        assert pi0_functor(at_a).eltset["b"] == ("(*|*|u)", "(*|*|w)")

    def test_block_map_over_an_idempotent_declared_before_its_identity(self):
        # e.e = e joins (a, e) to (a, id:a), and e comes first
        loop = category("a", [("e", "a", "a"), ("id:a", "a", "a")], [("e", "e", "e")])
        F = identity_functor(loop)
        K = pi0_functor(F)
        assert K.eltset == {"a": ("(a|*|e)",)}
        assert K.action == {"e": {"(a|*|e)": "(a|*|e)"}, "id:a": {"(a|*|e)": "(a|*|e)"}}
        assert (K.eltset, K.action) == pi0_read_off_each_comma(F)


class TestInitialFinal:
    def test_identity_is_initial_and_final(self):
        idf = identity_functor(chain_base())
        assert is_initial(idf).ok
        assert is_final(idf).ok

    def test_point_at_the_end_of_the_arrow(self):
        from helpers import span_non_fibration

        arrow = span_non_fibration().cod
        point = terminal_category()
        at_y = constant_functor(point, arrow, "y")
        at_x = constant_functor(point, arrow, "x")
        assert is_final(at_y).ok
        assert not is_initial(at_y).ok
        assert is_initial(at_x).ok
        assert not is_final(at_x).ok

    def test_initial_matches_an_oracle_built_on_the_comma_over_each_point(self, rng):
        not_initial = 0
        for _ in range(150):
            C = rand_dag_category(rng, 3, 2)
            D = rand_dag_category(rng, 3, 3)
            s = rand_functor(rng, C, D.cat)
            expected = []
            for e in D.cat.objects:
                n = len(bfs_components(comma_under(s, e).cat))
                if n != 1:
                    expected.append({"law": "comma-connected", "witness": (e, n)})
            assert list(is_initial(s).violations) == expected
            not_initial += bool(expected)
        assert 0 < not_initial < 150

    def test_final_matches_an_oracle_built_on_the_comma_under_each_point(self, rng):
        # the oracle builds each (e/s) as a comma category and counts its
        # components by BFS
        not_final = 0
        for _ in range(150):
            C = rand_dag_category(rng, 3, 2)
            D = rand_dag_category(rng, 3, 3)
            s = rand_functor(rng, C, D.cat)
            expected = []
            for e in D.cat.objects:
                under_e = comma(constant_functor(terminal_category(), D.cat, e), s)
                n = len(bfs_components(under_e.cat))
                if n != 1:
                    expected.append({"law": "comma-connected", "witness": (e, n)})
            assert list(is_final(s).violations) == expected
            not_final += bool(expected)
        assert 0 < not_final < 150


class TestComprehensiveFactorization:
    def test_identity(self):
        fac = comprehensive_factor_opfib(identity_functor(chain_base()))
        assert compose_functors(fac.p, fac.s) == identity_functor(chain_base())
        assert len(fac.mid.objects) == 3

    def test_collapse_to_the_point(self):
        c = chain_base()
        F = constant_functor(c, terminal_category(), "*")
        fac = comprehensive_factor_opfib(F)
        # the chain is connected, so the middle category is a point
        assert len(fac.mid.objects) == 1
        assert compose_functors(fac.p, fac.s) == F

    def test_random_functors_both_variants(self, rng):
        # the construction self-verifies (factors compose to F, the second
        # factor is a discrete (op)fibration, the first is initial/final),
        # so surviving construction is the assertion
        for _ in range(60):
            C = rand_dag_category(rng, 3, 2)
            D = rand_dag_category(rng, 3, 3)
            F = rand_functor(rng, C, D.cat)
            opfac = comprehensive_factor_opfib(F)
            fac = comprehensive_factor_fib(F)
            assert opfac.variant == "opfibration"
            assert fac.variant == "fibration"

    def test_fibration_form_matches_the_transported_opposite(self, rng):
        idem = category("a", [("e", "a", "a"), ("id:a", "a", "a")], [("e", "e", "e")])
        codomains = [mcg("xyz"), mcg("xy"), idem]
        for i in range(150):
            C = rand_dag_category(rng, 3, 3)
            D = rand_dag_category(rng, 3, 3).cat if i % 4 == 0 else codomains[i % 4 - 1]
            F = rand_functor(rng, C, D)
            fac, oracle = comprehensive_factor_fib(F), factor_fib_via_opposite(F)
            assert fac == oracle
            assert fac.mid.morphisms == oracle.mid.morphisms

    @pytest.mark.parametrize(
        "factorize, comma_at",
        [
            (comprehensive_factor_opfib, comma_under),  # (F/d)
            (
                comprehensive_factor_fib,  # (d/F)
                lambda F, d: comma(constant_functor(terminal_category(), F.cod, d), F),
            ),
        ],
        ids=["opfib", "fib"],
    )
    def test_fibre_sizes_are_the_component_counts(self, rng, factorize, comma_at):
        for _ in range(20):
            C = rand_dag_category(rng, 3, 2)
            D = rand_dag_category(rng, 3, 3)
            F = rand_functor(rng, C, D.cat)
            fac = factorize(F)
            for d in D.cat.objects:
                cat = comma_at(F, d).cat
                edges = [(m.src, m.tgt) for m in cat.morphisms]
                expected = len(connected_components(cat.objects, edges))
                assert len(fibre(fac.p, d).elements) == expected


def _arrow():
    return category("AB", [("g", "A", "B"), ("id:A", "A", "A"), ("id:B", "B", "B")])


def _point_pair():
    """The discrete category on x and y, and its functor onto the point."""
    C = category("xy", [("id:x", "x", "x"), ("id:y", "y", "y")])
    mmap = {"id:x": "id:*", "id:y": "id:*"}
    return FunctorSpec(C, terminal_category(), {"x": "*", "y": "*"}, mmap)


opfib, fib = comprehensive_factor_opfib, comprehensive_factor_fib
ARROW, POINT = identity_functor(_arrow()), identity_functor(terminal_category())


# Wrong results of elements, for the factorization to build on
def _constant_projection(built):
    """The elements projected onto the first base object."""
    t, base = built.total, built.projection.cod
    at = base.objects[0]
    mmap = dict.fromkeys(built.projection.mmap, base.identity[at])
    return replace(built, projection=FunctorSpec(t, base, dict.fromkeys(t.objects, at), mmap))


def _swapped_arrows(built):
    """The elements with the two ids of mor_id swapped."""
    mor_id = dict(zip(built.mor_id, reversed(built.mor_id.values())))
    return replace(built, mor_id=mor_id)


def _parallel_arrow(built):
    """The elements with a second arrow beside the first that is no identity."""
    t, p = built.total, built.projection
    m = next(m for m in t.morphisms if not t.is_identity(m.id))
    extra = Morphism("extra", m.src, m.tgt)
    total = FinCat(t.objects, t.morphisms + (extra,), t.identity, t.compose)
    q = FunctorSpec(total, p.cod, p.omap, {**p.mmap, extra.id: p.mmap[m.id]})
    return replace(built, total=total, projection=q)


def _isolated_object(built):
    """The elements with one more object, over the first base object, and
    no arrow but its identity."""
    t, p = built.total, built.projection
    at, i = p.cod.objects[0], Morphism("id:ghost", "ghost", "ghost")
    identity, compose = {**t.identity, "ghost": i.id}, {**t.compose, i.id: {i.id: i.id}}
    total = FinCat(t.objects + ("ghost",), t.morphisms + (i,), identity, compose)
    omap, mmap = {**p.omap, "ghost": at}, {**p.mmap, i.id: p.cod.identity[at]}
    return replace(built, total=total, projection=FunctorSpec(total, p.cod, omap, mmap))


class TestSelfChecks:
    """Each check that the factorization makes of its result fails once the
    step it verifies returns a wrong result."""

    def test_a_block_map_that_is_not_well_defined_is_refused(self, monkeypatch):
        # x and y both lie over A: one block at A, but two at B
        C = category("xy", [("id:x", "x", "x"), ("id:y", "y", "y")])
        F = FunctorSpec(C, _arrow(), {"x": "A", "y": "A"}, {"id:x": "id:A", "id:y": "id:A"})
        blocks = [[("x", "id:A"), ("y", "id:A")], [("x", "g")], [("y", "g")]]
        monkeypatch.setattr(factor, "connected_components", lambda objects, edges: blocks)
        with pytest.raises(WitnessFailure) as exc:
            comprehensive_factor_opfib(F)
        assert str(exc.value) == "block map not well-defined along g"

    @pytest.mark.parametrize(
        "factorize, F, middle, message",
        [
            (opfib, ARROW, _constant_projection, "p . s != F"),
            (opfib, _point_pair(), _swapped_arrows, "factor is not a functor"),
            (opfib, ARROW, _parallel_arrow, "middle projection is not a discrete opfibration"),
            (fib, ARROW, _parallel_arrow, "middle projection is not a discrete fibration"),
            (opfib, POINT, _isolated_object, "first factor is not initial"),
            (fib, POINT, _isolated_object, "first factor is not final"),
        ],
    )
    def test_a_wrong_middle_category_is_refused(self, monkeypatch, factorize, F, middle, message):
        elements = factor.elements
        monkeypatch.setattr(factor, "elements", lambda K: middle(elements(K)))
        with pytest.raises(WitnessFailure) as exc:
            factorize(F)
        assert str(exc.value) == message
