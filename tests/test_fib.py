import pytest

from fibcat.errors import NotDiscreteFibration, ShapeMismatch, UnknownObject
from fibcat.fib import (
    CartesianWitness,
    fibre,
    is_cartesian,
    is_discrete_fibration,
    is_discrete_opfibration,
    is_fab_square,
    is_fib_morphism,
    is_fibration,
    is_opfibration,
    reindex,
)
from fibcat.fincat import (
    FunctorSpec,
    comma,
    constant_functor,
    identity_functor,
    opposite_functor,
    terminal_category,
)
from fibcat.groth import elements
from fibcat.mcg import mcg

from helpers import (
    chain_base,
    fig2_fibration,
    rand_dag_category,
    rand_functor,
    rand_presheaf,
    scan_cloven_fibration,
    scan_discrete_opfibration,
    scan_fillers,
    span_non_fibration,
    two_filler_functor,
)


@pytest.fixture
def p():
    return fig2_fibration()


class TestDiscreteFibration:
    def test_identity_functor_is_discrete(self):
        assert is_discrete_fibration(identity_functor(chain_base())).ok

    def test_fig2(self, p):
        assert is_discrete_fibration(p).ok

    def test_deleted_lift_detected(self, p):
        kept = tuple(m for m in p.dom.morphisms if m.id != "g:C0")
        total = type(p.dom)(
            p.dom.objects,
            kept,
            p.dom.identity,
            {
                g: {f: h for f, h in row.items() if f != "g:C0"}
                for g, row in p.dom.compose.items()
                if g != "g:C0"
            },
        )
        broken = FunctorSpec(
            total, p.cod, p.omap, {k: v for k, v in p.mmap.items() if k != "g:C0"}
        )
        report = is_discrete_fibration(broken)
        assert {"law": "unique-lift", "witness": ("C0", "g", 0)} in report.violations


class TestDiscreteOpfibration:
    def test_violations_match_a_scan(self, rng):
        outcomes = set()
        for _ in range(150):
            p = rand_functor(rng, rand_dag_category(rng, 4, 5), rand_dag_category(rng, 3, 3).cat)
            report = is_discrete_opfibration(p)
            assert report.violations == scan_discrete_opfibration(p)
            assert report.ok == (not report.violations)
            outcomes.add(report.ok)
        assert outcomes == {True, False}

    def test_reads_the_opposite_in_place(self, monkeypatch, rng):
        def refuse(F):
            raise AssertionError("opposite_functor called")

        p = rand_functor(rng, rand_dag_category(rng, 4, 5), rand_dag_category(rng, 3, 3).cat)
        monkeypatch.setattr("fibcat.fib.opposite_functor", refuse)
        assert is_discrete_opfibration(p).violations == scan_discrete_opfibration(p)


class TestFibre:
    def test_sizes(self, p):
        assert fibre(p, "A").elements == ("A0", "A1", "A2")
        assert fibre(p, "B").elements == ("B0", "B1", "B2")
        assert fibre(p, "C").elements == ("C0", "C1")

    def test_identity_functor_fibres_are_singletons(self):
        c = chain_base()
        idf = identity_functor(c)
        for obj in c.objects:
            assert fibre(idf, obj).elements == (obj,)

    def test_unknown_object(self, p):
        with pytest.raises(UnknownObject):
            fibre(p, "Z")


class TestReindex:
    def test_along_f(self, p):
        assert reindex(p, "f").table == {"B0": "A0", "B1": "A2", "B2": "A2"}

    def test_along_identity(self, p):
        assert reindex(p, "id:B").table == {b: b for b in ("B0", "B1", "B2")}

    def test_along_composite_is_composite_of_tables(self, p):
        assert reindex(p, "gf").table == {"C0": "A2", "C1": "A0"}
        rf, rg = reindex(p, "f").table, reindex(p, "g").table
        assert reindex(p, "gf").table == {c: rf[rg[c]] for c in rg}

    def test_requires_discrete_fibration(self):
        with pytest.raises(NotDiscreteFibration):
            reindex(span_non_fibration(), "u")

    def test_strict_functoriality_on_random_fibrations(self, rng):
        for _ in range(200):
            base = rand_dag_category(rng, 3, 3)
            W = rand_presheaf(rng, base, max_elts=3)
            q = elements(W).projection
            for obj in q.cod.objects:
                idm = q.cod.identity[obj]
                assert reindex(q, idm).table == {
                    x: x for x in fibre(q, obj).elements
                }
            for g, row in q.cod.compose.items():
                for f, h in row.items():
                    rf, rg = reindex(q, f).table, reindex(q, g).table
                    assert reindex(q, h).table == {x: rf[rg[x]] for x in rg}


class TestCartesian:
    def test_identity_over_identity(self, p):
        assert is_cartesian(p, "id:A0").ok

    def test_all_morphisms_of_a_discrete_fibration(self, p):
        for m in p.dom.morphisms:
            assert is_cartesian(p, m.id).ok, m.id

    def test_span_legs_fail_uniqueness(self):
        q = span_non_fibration()
        for leg in ("a", "b"):
            result = is_cartesian(q, leg)
            assert not result.ok
            (v,) = result.violations
            assert v["law"] == "unique-filler"
            g, w, n = v["witness"]
            assert n == 0


class TestClovenFibration:
    def test_discrete_implies_cloven(self, p):
        result = is_fibration(p)
        assert result.ok
        # the cleavage is exactly the unique-lift table
        assert result.witness[("B0", "f")] == "f:B0"
        assert result.witness[("C0", "gf")] == "gf:C0"

    def test_span_has_no_cartesian_lift(self):
        result = is_fibration(span_non_fibration())
        assert not result.ok
        assert any(v["witness"][0] == "e0" for v in result.violations)

    def test_comma_projections(self, rng):
        for _ in range(30):
            C = rand_dag_category(rng, 3, 3)
            F = rand_functor(rng, rand_dag_category(rng, 3, 2), C.cat)
            G = rand_functor(rng, rand_dag_category(rng, 3, 2), C.cat)
            cm = comma(F, G)
            assert is_fibration(cm.projA).ok
            assert is_opfibration(cm.projB).ok

    @staticmethod
    def _matches_the_scan(report, p):
        ok, violations, cleavage = scan_cloven_fibration(p)
        assert (report.ok, report.violations) == (ok, violations)
        assert list(report.witness.items()) == list(cleavage.items())
        for f in p.dom.morphisms:
            cartesian, fillers = is_cartesian(p, f.id), scan_fillers(p, f)
            assert cartesian.ok == (fillers is not None), f.id
            if cartesian.ok:
                assert cartesian.witness == CartesianWitness(f.id, p.mmap[f.id], fillers)
        return ok

    def test_matches_a_scan_oracle(self, rng):
        outcomes = set()
        for _ in range(150):
            p = rand_functor(rng, rand_dag_category(rng, 4, 5), rand_dag_category(rng, 3, 3).cat)
            outcomes.add(self._matches_the_scan(is_fibration(p), p))
            outcomes.add(self._matches_the_scan(is_opfibration(p), opposite_functor(p)))
        assert outcomes == {True, False}
        # a free category never has two fillers, nor two cartesian lifts of
        # one arrow into one object: that takes a non-cancellative category
        # and a groupoid, whose every morphism is cartesian over an identity
        p = two_filler_functor()
        self._matches_the_scan(is_fibration(p), p)
        for k in (2, 3):
            D = rand_dag_category(rng, 3, 2).cat
            p = constant_functor(mcg([f"g{i}" for i in range(k)]), D, D.objects[-1])
            self._matches_the_scan(is_fibration(p), p)
            self._matches_the_scan(is_opfibration(p), opposite_functor(p))

    def test_two_fillers_are_one_violation(self):
        p = two_filler_functor()
        assert is_cartesian(p, "f").violations == (
            {"law": "unique-filler", "witness": ("fh", "f", 2)},
        )
        assert {"law": "cartesian-lift", "witness": ("e", "g")} in is_fibration(p).violations


class TestFibMorphism:
    def test_identity_over_identity(self, p):
        H = identity_functor(p.dom)
        assert is_fib_morphism(H, p, p).ok

    def test_fibre_swap_breaks_the_reindexing_square(self, p):
        swap = {"A1": "A2", "A2": "A1"}
        omap = {e: swap.get(e, e) for e in p.dom.objects}
        H = FunctorSpec(p.dom, p.dom, omap, {m.id: m.id for m in p.dom.morphisms})
        report = is_fib_morphism(H, p, p)
        laws = {v["law"] for v in report.violations}
        assert "reindexing-square" in laws
        # the strict triangle still holds: the swap stays inside the fibre
        assert "triangle-object" not in laws

    def test_a_map_off_the_base_breaks_the_triangle(self):
        # q . H sends everything to A and its identity; p keeps B, C and their arrows
        c = chain_base()
        p = identity_functor(c)
        H = constant_functor(c, c, "A")
        assert [(v["law"], v["witness"]) for v in is_fib_morphism(H, p, p).violations] == [
            ("triangle-object", ("B",)),
            ("triangle-object", ("C",)),
            ("triangle-morphism", ("f",)),
            ("triangle-morphism", ("g",)),
            ("triangle-morphism", ("gf",)),
            ("triangle-morphism", ("id:B",)),
            ("triangle-morphism", ("id:C",)),
        ]

    def test_squares_follow_for_genuine_morphisms(self, rng):
        # whenever the triangle holds between discrete fibrations, the
        # induced fibre maps commute with every reindexing
        for _ in range(40):
            base = rand_dag_category(rng, 3, 2)
            V = rand_presheaf(rng, base, max_elts=2)
            ev = elements(V)
            H = identity_functor(ev.total)
            report = is_fib_morphism(H, ev.projection, ev.projection)
            assert report.ok

    def test_shape_mismatch(self, p):
        with pytest.raises(ShapeMismatch):
            is_fib_morphism(identity_functor(p.cod), p, p)


class TestFabSquare:
    def test_identity_square(self, p):
        assert is_fab_square(identity_functor(p.dom), identity_functor(p.cod), p, p).ok

    def test_shape_mismatch(self, p):
        with pytest.raises(ShapeMismatch, match="expected a square H over F from p to q"):
            is_fab_square(identity_functor(p.cod), identity_functor(p.cod), p, p)

    def test_collapse_to_the_point(self, p):
        one = terminal_category()
        F = constant_functor(p.cod, one, "*")
        q = constant_functor(p.dom, one, "*")
        H = identity_functor(p.dom)
        assert is_fab_square(H, F, p, q).ok

    def test_inconsistent_collapse_detected(self, p):
        one = terminal_category()
        F = constant_functor(p.cod, one, "*")
        q = constant_functor(p.dom, one, "*")
        # target a two-object codomain so the square can actually fail
        arr = mcg("xy")
        F2 = constant_functor(p.cod, arr, "x")
        q2 = constant_functor(p.dom, arr, "x")
        omap = dict(identity_functor(p.dom).omap)
        H = identity_functor(p.dom)
        q_bad = FunctorSpec(
            p.dom,
            arr,
            {e: ("y" if e == "A1" else "x") for e in p.dom.objects},
            {
                m.id: ("id:y" if m.src == "A1" and m.tgt == "A1" else "id:x")
                for m in p.dom.morphisms
            },
        )
        report = is_fab_square(H, F2, p, q_bad)
        assert any(v["law"] == "square-object" for v in report.violations)
        assert is_fab_square(H, F2, p, q2).ok
