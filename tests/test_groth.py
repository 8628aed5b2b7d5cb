from dataclasses import replace

import pytest

from fibcat import groth
from fibcat.errors import InvalidFunctor, MalformedSpec, NotDiscreteFibration, WitnessFailure
from fibcat.fib import fibre, is_discrete_fibration
from fibcat.fincat import (
    CONTRAVARIANT,
    COVARIANT,
    FinCat,
    FunctorSpec,
    Morphism,
    SetValuedFunctor,
    identity_functor,
    opposite,
    terminal_category,
)
from fibcat.groth import elements, roundtrip_fibration, roundtrip_presheaf, straighten

from helpers import (
    scan_complete_units,
    chain_base,
    count_fibration_morphisms,
    count_natural_transformations,
    fig2_fibration,
    rand_dag_category,
    rand_fibration_over_mcg,
    rand_presheaf,
    scan_elements,
    scan_filled_result,
    span_non_fibration,
)


def constant_singleton(base):
    return SetValuedFunctor(
        base=base,
        variance=CONTRAVARIANT,
        eltset={c: ("*",) for c in base.objects},
        action={m.id: {"*": "*"} for m in base.morphisms},
    )


def fig2_presheaf():
    base = chain_base()
    eltset = {"A": ("A0", "A1", "A2"), "B": ("B0", "B1", "B2"), "C": ("C0", "C1")}
    action = {
        "f": {"B0": "A0", "B1": "A2", "B2": "A2"},
        "g": {"C0": "B2", "C1": "B0"},
        "gf": {"C0": "A2", "C1": "A0"},
    }
    for c in base.objects:
        action[base.identity[c]] = {x: x for x in eltset[c]}
    return SetValuedFunctor(
        base=base, variance=CONTRAVARIANT, eltset=eltset, action=action
    )


class TestElements:
    def test_constant_singleton_gives_the_base_back(self):
        base = chain_base()
        built = elements(constant_singleton(base))
        assert len(built.total.objects) == len(base.objects)
        assert len(built.total.morphisms) == len(base.morphisms)
        assert is_discrete_fibration(built.projection).ok

    def test_fig2_presheaf_rebuilds_the_total_category(self):
        built = elements(fig2_presheaf())
        assert len(built.total.objects) == 8
        p = built.projection
        assert [len(fibre(p, c).elements) for c in "ABC"] == [3, 3, 2]

    def test_empty_sets_give_the_empty_total_category(self):
        base = span_non_fibration().cod  # the arrow category x -> y
        W = SetValuedFunctor(
            base=base,
            variance=CONTRAVARIANT,
            eltset={"x": (), "y": ()},
            action={"u": {}, "id:x": {}, "id:y": {}},
        )
        built = elements(W)
        assert built.total.objects == ()

    def test_a_presheaf_that_breaks_a_law_is_refused(self):
        W = fig2_presheaf()
        W.action["gf"] = {"C0": "A0", "C1": "A0"}  # g then f sends C0 to A2
        with pytest.raises(InvalidFunctor, match="functoriality laws fail"):
            elements(W)

    def test_projection_always_discrete(self, rng):
        for _ in range(50):
            base = rand_dag_category(rng, 4, 3)
            W = rand_presheaf(rng, base, max_elts=3)
            built = elements(W)
            assert is_discrete_fibration(built.projection).ok
            for c in base.cat.objects:
                assert len(fibre(built.projection, c).elements) == len(W.eltset[c])

    def test_a_composite_over_an_empty_fibre_is_never_looked_up(self):
        # the table lacks g . f, but nothing lies over C, so no arrow is over g
        base = chain_base()
        del base.compose["g"]["f"]
        eltset = {"A": ("a",), "B": ("b",), "C": ()}
        action = {"f": {"b": "a"}, "g": {}, "gf": {}, "id:A": {"a": "a"}, "id:B": {"b": "b"}}
        W = SetValuedFunctor(base, CONTRAVARIANT, eltset, {"id:C": {}, **action})
        assert elements(W).total.objects == ("(A|a)", "(B|b)")

    def test_matches_the_scan_in_both_variances(self, rng):
        for i in range(80):
            if i % 4 == 3:
                W = rand_fibration_over_mcg(rng, n_objects=rng.randint(1, 3))[1]
            else:
                W = rand_presheaf(rng, rand_dag_category(rng, 4, 4), max_elts=3)
            for V in (W, SetValuedFunctor(opposite(W.base), COVARIANT, W.eltset, W.action)):
                built, oracle = elements(V), scan_elements(V)
                assert scan_filled_result(built) == oracle
                assert (built.obj_id, built.mor_id) == (oracle.obj_id, oracle.mor_id)
                assert built.total.morphisms == oracle.total.morphisms


class TestStraighten:
    def test_identity_fibration(self):
        c = chain_base()
        W = straighten(identity_functor(c))
        assert all(W.eltset[obj] == (obj,) for obj in c.objects)

    def test_fig2(self):
        W = straighten(fig2_fibration())
        assert W.eltset["A"] == ("A0", "A1", "A2")
        assert W.action["f"] == {"B0": "A0", "B1": "A2", "B2": "A2"}
        assert W.action["gf"] == {"C0": "A2", "C1": "A0"}

    def test_rejects_non_fibrations(self):
        with pytest.raises(NotDiscreteFibration):
            straighten(span_non_fibration())


class TestRoundtrips:
    def test_constant_singleton(self):
        witness = roundtrip_presheaf(constant_singleton(terminal_category()))
        assert (witness.forward, witness.backward) == ({"*": {"*": "(*|*)"}}, {"*": {"(*|*)": "*"}})

    def test_fig2_both_ways(self):
        roundtrip_presheaf(fig2_presheaf())
        roundtrip_fibration(fig2_fibration())

    def test_random_presheaves(self, rng):
        for _ in range(100):
            base = rand_dag_category(rng, 5, 4)
            W = rand_presheaf(rng, base, max_elts=4)
            roundtrip_presheaf(W)
            roundtrip_fibration(elements(W).projection)

    def test_a_map_that_is_no_functor_is_reported_by_its_entry(self):
        # m: a -> c lies over u: A -> B, but c lies over A, not B
        def free(objects, arrows):
            ms = [Morphism(f"id:{o}", o, o) for o in objects] + [Morphism(*a) for a in arrows]
            cat = FinCat(objects, ms, {o: f"id:{o}" for o in objects}, {})
            scan_complete_units(cat)
            return cat

        base, total = free(("A", "B"), [("u", "A", "B")]), free(("a", "c"), [("m", "a", "c")])
        omap, mmap = {"a": "A", "c": "A"}, {"id:a": "id:A", "id:c": "id:A", "m": "u"}
        p = FunctorSpec(total, base, omap, mmap)
        with pytest.raises(MalformedSpec) as exc:
            roundtrip_fibration(p)
        assert (exc.value.path, exc.value.message) == ("mmap.m", "unknown morphism (u|c)")

    def test_random_covariant_presheaves(self, rng):
        for _ in range(100):
            W = rand_presheaf(rng, rand_dag_category(rng, 5, 4), max_elts=4)
            K = SetValuedFunctor(opposite(W.base), COVARIANT, W.eltset, W.action)
            roundtrip_presheaf(K)


class TestSelfChecks:
    """Each check that a roundtrip makes of its witness fails once the step
    it verifies returns a wrong result."""

    def _straighten_with(self, monkeypatch, edit):
        straighten = groth.straighten
        monkeypatch.setattr(groth, "straighten", lambda p: edit(straighten(p)))

    def test_a_component_that_is_no_bijection_is_refused(self, monkeypatch):
        # the fibre over * loses its element
        self._straighten_with(monkeypatch, lambda W: replace(W, eltset={"*": ()}))
        with pytest.raises(WitnessFailure) as exc:
            roundtrip_presheaf(constant_singleton(terminal_category()))
        assert str(exc.value) == "component at * is not a bijection"

    def test_an_action_that_is_not_natural_is_refused(self, monkeypatch):
        # reindexing along f sends (B|B0) to (A|A2), where W sends B0 to A0
        def rotated(W):
            f = W.action["f"]
            return replace(W, action={**W.action, "f": dict(zip(f, reversed(f.values())))})

        self._straighten_with(monkeypatch, rotated)
        with pytest.raises(WitnessFailure) as exc:
            roundtrip_presheaf(fig2_presheaf())
        assert str(exc.value) == "naturality fails at (f, B0)"

    def test_an_element_with_no_lift_is_refused(self, monkeypatch):
        # every fibre element x is renamed x', which no total object is
        def renamed(W):
            eltset = {c: tuple(x + "'" for x in xs) for c, xs in W.eltset.items()}
            action = {u: {y + "'": x + "'" for y, x in t.items()} for u, t in W.action.items()}
            return replace(W, eltset=eltset, action=action)

        self._straighten_with(monkeypatch, renamed)
        with pytest.raises(WitnessFailure) as exc:
            roundtrip_fibration(fig2_fibration())
        assert str(exc.value) == "no unique lift for (f|B0')"


class TestFullFaithfulness:
    def test_transformation_counts_match_morphism_counts(self, rng):
        for _ in range(25):
            base = rand_dag_category(rng, 3, 2)
            V = rand_presheaf(rng, base, max_elts=2, min_elts=1)
            W = rand_presheaf(rng, base, max_elts=2, min_elts=1)
            assert count_natural_transformations(V, W) == count_fibration_morphisms(
                V, W
            )
