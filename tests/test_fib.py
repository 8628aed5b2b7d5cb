import copy
import io
import os

import pytest

from fibcat import cli, fib
from fibcat.errors import NotDiscreteFibration, ShapeMismatch, UnknownMorphism, UnknownObject
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
    validate_category,
    validate_functor,
)
from fibcat.groth import elements
from fibcat.mcg import mcg

from helpers import (
    chain_base,
    fig2_fibration,
    missing_lift_functor,
    parallel_lifts_functor,
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

    def test_unknown_morphism(self, p):
        with pytest.raises(UnknownMorphism, match="no total morphism named 'f'"):
            is_cartesian(p, "f")


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

    @staticmethod
    def _validated(p):
        """p, once it, its dom and its cod keep a valid report, so
        is_fibration may read a lift as cartesian by theorem."""
        assert validate_category(p.dom).ok and validate_category(p.cod).ok
        assert validate_functor(p).ok
        return p

    def test_the_theorem_path_matches_a_scan_oracle(self, monkeypatch, rng):
        calls = _counted_cartesian(monkeypatch)
        outcomes, settled, searched = set(), 0, 0
        for _ in range(150):
            cod = rand_dag_category(rng, 3, 3).cat
            p = self._validated(rand_functor(rng, rand_dag_category(rng, 4, 5), cod))
            calls.clear()
            report = is_fibration(p)
            settled += len(calls)
            calls.clear()
            assert is_fibration(copy.deepcopy(p)) == report  # the copy keeps no report
            searched += len(calls)
            outcomes.add(self._matches_the_scan(report, p))
        assert outcomes == {True, False}
        assert settled < searched
        p = self._validated(two_filler_functor())
        self._matches_the_scan(is_fibration(p), p)
        for k in (2, 3):
            D = rand_dag_category(rng, 3, 2).cat
            G = mcg([f"g{i}" for i in range(k)])
            p = self._validated(constant_functor(G, D, D.objects[-1]))
            self._matches_the_scan(is_fibration(p), p)

    @pytest.mark.parametrize("build, violations", [
        # two lifts of u at e: only "at most one lift at e" stops f1 being read as cartesian
        (parallel_lifts_functor, [("e", "u")]),
        # no lift of w at e': only "exactly one lift at e'" stops f being read as cartesian
        (missing_lift_functor, [("e", "u"), ("e'", "w")]),
    ])
    def test_each_hypothesis_of_the_theorem_is_needed(self, build, violations):
        p = self._validated(build())
        report = is_fibration(p)
        assert [v["witness"] for v in report.violations] == violations
        assert not self._matches_the_scan(report, p)

    def test_a_functor_that_fails_its_laws_takes_the_filler_search(self, monkeypatch):
        q = self._validated(span_non_fibration())
        # e2 over y, while b: e2 -> e0 lies over u: x -> y
        broken = FunctorSpec(q.dom, q.cod, {**q.omap, "e2": "y"}, q.mmap)
        assert not validate_functor(broken).ok  # kept, with its violations
        calls = _counted_cartesian(monkeypatch)
        report = is_fibration(broken)
        theorem_calls, calls[:] = list(calls), []
        assert is_fibration(copy.deepcopy(broken)) == report
        assert theorem_calls == calls == ["id:e1", "a", "id:e0"]
        # neither keeps a report, as validate_functor raises on both: a missing
        # object image, and an unhashable morphism image with a missing one
        for omap, mmap in [
            ({"e0": "y", "e2": "x"}, q.mmap),
            (q.omap, {**{m: u for m, u in q.mmap.items() if m != "b"}, "a": ["u"]}),
        ]:
            with pytest.raises(KeyError):  # as the filler search raises
                is_fibration(FunctorSpec(q.dom, q.cod, omap, mmap))

    def test_two_fillers_are_one_violation(self):
        p = two_filler_functor()
        assert is_cartesian(p, "f").violations == (
            {"law": "unique-filler", "witness": ("fh", "f", 2)},
        )
        assert {"law": "cartesian-lift", "witness": ("e", "g")} in is_fibration(p).violations


def _counted_cartesian(monkeypatch):
    """The list to which each call of is_cartesian from within fib appends
    its lift, from now on."""
    calls, real = [], fib.is_cartesian

    def counted(p, f):
        calls.append(f)
        return real(p, f)

    monkeypatch.setattr(fib, "is_cartesian", counted)
    return calls


class TestCartesianCalls:
    """check-fib --cloven on a loaded functor runs the filler search only on
    the lifts whose ends fail the theorem's hypotheses; on a copy, which
    keeps no report, and on the opposite, it runs on every lift it tries."""

    @staticmethod
    def _calls(monkeypatch, fixtures_dir, fixture, functor):
        calls = _counted_cartesian(monkeypatch)
        path = os.path.join(fixtures_dir, fixture)
        cli.main(["check-fib", "--cloven", path, functor], out=io.StringIO())
        theorem_calls = list(calls)
        p = cli.load(path).functors[functor]
        report = is_fibration(p)
        calls.clear()
        assert is_fibration(copy.deepcopy(p)) == report
        return theorem_calls, calls

    @pytest.mark.parametrize("fixture, lifts", [("fig2.json", 15), ("mcg_fibration.json", 18)])
    def test_none_on_a_loaded_discrete_fibration(self, monkeypatch, fixtures_dir, fixture, lifts):
        theorem_calls, copy_calls = self._calls(monkeypatch, fixtures_dir, fixture, "p")
        assert theorem_calls == []
        assert len(copy_calls) == lifts  # one per (e, u): each has the one lift

    def test_only_the_lifts_into_a_doubly_lifted_object(self, monkeypatch, fixtures_dir):
        # u: x -> y has the two lifts a and b at e0; e1 and e2 have one lift of id:x each
        theorem_calls, copy_calls = self._calls(monkeypatch, fixtures_dir, "span.json", "q")
        assert theorem_calls == ["a", "b", "id:e0"]
        assert copy_calls == ["id:e1", "a", "b", "id:e0", "id:e2"]

    def test_the_opposite_takes_the_filler_search(self, monkeypatch, fixtures_dir):
        p = cli.load(os.path.join(fixtures_dir, "fig2.json")).functors["p"]
        calls = _counted_cartesian(monkeypatch)
        report = is_opfibration(p)
        opposite_calls, calls[:] = list(calls), []
        assert is_fibration(opposite_functor(copy.deepcopy(p))) == report
        assert opposite_calls == calls != []


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
